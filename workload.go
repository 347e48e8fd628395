package mot

import (
	"io"

	"repro/internal/experiments"
	"repro/internal/mobility"
	"repro/internal/sim"
)

// MobilityModel selects how workload objects move.
type MobilityModel = mobility.Model

// Mobility models.
const (
	// RandomWalk moves an object to a uniformly random adjacent sensor.
	RandomWalk = mobility.RandomWalk
	// RandomWaypoint walks shortest paths to random destinations.
	RandomWaypoint = mobility.RandomWaypoint
)

// WorkloadConfig parameterizes workload generation (the paper's §8
// setting: m objects, a fixed number of maintenance operations per object
// interleaved in random order, plus queries from random sensors).
type WorkloadConfig struct {
	Objects        int
	MovesPerObject int
	Queries        int
	Model          MobilityModel
	Seed           int64
	// QueryRadius localizes queries around each object's final position
	// (0 = uniform requesters, the paper's setting).
	QueryRadius float64
}

// GenerateWorkload builds a reproducible workload over g.
func GenerateWorkload(g *Graph, m *Metric, cfg WorkloadConfig) (*Workload, error) {
	return mobility.Generate(g, m, mobility.Config(cfg))
}

// DetectionRates extracts the per-edge crossing frequencies of a workload —
// the traffic knowledge consumed by the STUN and Z-DAT constructions (MOT,
// being traffic-oblivious, never sees it).
func DetectionRates(w *Workload, g *Graph) EdgeRates {
	return w.DetectionRates(g)
}

// Replay drives a full workload through a directory one-by-one: publish
// every object, apply every move, then issue every query. It returns the
// directory's meter afterwards.
func Replay(d Directory, w *Workload) (CostMeter, error) {
	for o, at := range w.Initial {
		if err := d.Publish(ObjectID(o), at); err != nil {
			return CostMeter{}, err
		}
	}
	for _, mv := range w.Moves {
		if err := d.Move(mv.Object, mv.To); err != nil {
			return CostMeter{}, err
		}
	}
	for _, q := range w.Queries {
		if _, _, err := d.Query(q.From, q.Object); err != nil {
			return CostMeter{}, err
		}
	}
	return d.Meter(), nil
}

// ConcurrentOptions parameterizes a concurrent (discrete-event) MOT run.
type ConcurrentOptions struct {
	// Seed drives the overlay and schedule.
	Seed int64
	// Concurrency is the per-object operation burst size (the paper
	// fixes 10).
	Concurrency int
	// SpecialParentOffset as in Options.
	SpecialParentOffset int
	// PeriodSync gates level crossings at the §4.1.2 period boundaries.
	PeriodSync bool
}

// ConcurrentResult reports a concurrent MOT simulation.
type ConcurrentResult struct {
	Meter   CostMeter
	Queries []QueryResult
}

// RunConcurrent simulates the workload on MOT with concurrent operations
// (bursts of Concurrency maintenance operations per object; queries
// overlap maintenance and chase moving objects). The simulation is
// deterministic given the seed and validates directory invariants at
// quiescence.
func RunConcurrent(g *Graph, w *Workload, opt ConcurrentOptions) (*ConcurrentResult, error) {
	m := NewMetric(g)
	tr, err := newConcurrentSim(g, m, opt)
	if err != nil {
		return nil, err
	}
	if _, err := sim.Schedule(tr.s, w, sim.DriverConfig{
		Concurrency: opt.Concurrency,
		Diameter:    m.Diameter(),
		Seed:        opt.Seed,
	}); err != nil {
		return nil, err
	}
	if err := tr.eng.Run(); err != nil {
		return nil, err
	}
	if err := tr.s.CheckInvariants(); err != nil {
		return nil, err
	}
	return &ConcurrentResult{Meter: tr.s.Meter(), Queries: tr.s.Results()}, nil
}

type concurrentSim struct {
	s   *sim.MOTSim
	eng *sim.Engine
}

func newConcurrentSim(g *Graph, m *Metric, opt ConcurrentOptions) (*concurrentSim, error) {
	sigma := opt.SpecialParentOffset
	if sigma == 0 {
		sigma = 2
	}
	hs, err := buildSimpleOverlay(g, m, opt.Seed, sigma)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(0)
	s, err := sim.NewMOT(hs, eng, sim.Config{PeriodSync: opt.PeriodSync})
	if err != nil {
		return nil, err
	}
	return &concurrentSim{s: s, eng: eng}, nil
}

// RunFigure regenerates one of the paper's evaluation figures (4–15),
// writing its series to w. Scale in (0, 1] shrinks the workload (1 is the
// paper's full setting; small scales finish in seconds); any other scale,
// NaN included, is an error.
func RunFigure(id int, scale float64, w io.Writer) error {
	if !(scale > 0 && scale <= 1) {
		return errFigureScale(scale)
	}
	figs := experiments.Figures(scale)
	f, ok := figs[id]
	if !ok {
		return errUnknownFigure(id)
	}
	return f.Run(w)
}

// FigureIDs lists the reproducible figure numbers.
func FigureIDs() []int {
	return experiments.FigureIDs(experiments.Figures(1))
}
