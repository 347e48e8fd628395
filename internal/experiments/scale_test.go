package experiments

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/graph"
)

// renderScale prints a scale result the way cmd/motsim does.
func renderScale(res *ScaleResult) []byte {
	var buf bytes.Buffer
	PrintScale(&buf, res)
	return buf.Bytes()
}

// TestScaleOracleNoFlatTable is the acceptance smoke for the scale tier
// (`make scale`): a full 10 000-node cost-ratio cell — oracle build,
// hierarchy build, workload replay with sampled exact re-metering —
// completes without EVER materializing an n×n flat distance table
// (graph.FrozenTableCount is the process-wide freeze counter; at 10k
// nodes one table would be 800 MB, at 100k it would be 80 GB).
func TestScaleOracleNoFlatTable(t *testing.T) {
	before := graph.FrozenTableCount()
	res, err := RunScale(ScaleConfig{Sizes: []int{10000}})
	if err != nil {
		t.Fatal(err)
	}
	if delta := graph.FrozenTableCount() - before; delta != 0 {
		t.Fatalf("scale run froze %d flat n×n tables; oracle mode must freeze none", delta)
	}
	if !res.OracleMode[0] {
		t.Fatal("10k cell did not run in oracle mode")
	}
	if res.Stretch[0] < 1 {
		t.Fatalf("stretch bound %v < 1", res.Stretch[0])
	}
	if res.Maintenance[0] <= 0 || res.Query[0] <= 0 {
		t.Fatalf("degenerate metered ratios: maint=%v query=%v", res.Maintenance[0], res.Query[0])
	}
	if res.SampledOps[0] <= 0 {
		t.Fatal("sampled exact re-metering recorded no operations")
	}
	if res.SampledMaint[0] <= 0 || res.SampledQuery[0] <= 0 {
		t.Fatalf("degenerate sampled exact ratios: maint=%v query=%v", res.SampledMaint[0], res.SampledQuery[0])
	}
	// The audited overshoot must sit inside [1, stretch]: estimates never
	// undershoot exact distances and never exceed the published bound.
	const eps = 1e-9
	if o := res.Overestimate[0]; o < 1-eps || o > res.Stretch[0]+eps {
		t.Fatalf("sampled est/exact factor %v outside [1, stretch=%v]", o, res.Stretch[0])
	}
}

// TestScaleOracleSampledAudit runs a mid-size cell in oracle mode and
// checks the sampled exact audit against a ForceExact run of the same
// cell: the exact run's sampled Est and Exact fields must coincide, and
// the oracle run's audited overshoot must respect the stretch bound.
func TestScaleOracleSampledAudit(t *testing.T) {
	cfg := ScaleConfig{Sizes: []int{2048}, Objects: 8, MovesPerObject: 30, Queries: 50}
	res, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OracleMode[0] {
		t.Fatal("2048-node cell should run in oracle mode (OracleMinN default)")
	}
	const eps = 1e-9
	if o := res.Overestimate[0]; o < 1-eps || o > res.Stretch[0]+eps {
		t.Fatalf("est/exact factor %v outside [1, stretch=%v]", o, res.Stretch[0])
	}

	cfg.ForceExact = true
	exact, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exact.OracleMode[0] {
		t.Fatal("ForceExact cell reported oracle mode")
	}
	if exact.Stretch[0] != 1 {
		t.Fatalf("exact substrate stretch %v, want 1", exact.Stretch[0])
	}
	// On the exact metric the shadowed estimates ARE the exact values.
	if o := exact.Overestimate[0]; o != 1 {
		t.Fatalf("exact-mode est/exact factor %v, want exactly 1", o)
	}
}

// TestGoldenScaleOracleFallback pins the fallback contract: below
// OracleMinN an oracle-mode sweep takes the exact substrate path, so its
// rendered output is byte-identical to a ForceExact sweep — and to
// itself at any worker count (this name rides the golden race tier).
func TestGoldenScaleOracleFallback(t *testing.T) {
	base := ScaleConfig{
		Sizes:          []int{36, 64, 121},
		Objects:        6,
		MovesPerObject: 25,
		Queries:        20,
		Seeds:          3,
		Workers:        1,
	}
	oracle, err := RunScale(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, mode := range oracle.OracleMode {
		if mode {
			t.Fatalf("size %d ran in oracle mode below OracleMinN", base.Sizes[i])
		}
	}

	exactCfg := base
	exactCfg.ForceExact = true
	exact, err := RunScale(exactCfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderScale(oracle), renderScale(exact)
	if !bytes.Equal(a, b) {
		t.Fatalf("small-n oracle mode is not byte-identical to exact mode:\n--- oracle\n%s--- exact\n%s", a, b)
	}

	parCfg := base
	parCfg.Workers = 4
	par, err := RunScale(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, renderScale(par)) {
		t.Fatalf("Workers=1 and Workers=4 rendered different scale figures:\n--- w1\n%s--- w4\n%s", a, renderScale(par))
	}
}

// TestScaleOracleDefaults pins the config defaulting: an empty config
// becomes the one-cell 10k sweep with sampling on, and a negative
// ExactSampleEvery disables sampling.
func TestScaleOracleDefaults(t *testing.T) {
	cfg := ScaleConfig{}
	cfg.fill()
	if len(cfg.Sizes) != 1 || cfg.Sizes[0] != DefaultScaleNodes {
		t.Fatalf("default sizes %v", cfg.Sizes)
	}
	if cfg.ExactSampleEvery != DefaultExactSampleEvery {
		t.Fatalf("default sample rate %d", cfg.ExactSampleEvery)
	}
	if cfg.OracleMinN != DefaultOracleMinN {
		t.Fatalf("default OracleMinN %d", cfg.OracleMinN)
	}

	off := ScaleConfig{Sizes: []int{64}, Objects: 2, MovesPerObject: 5, Queries: 5, ExactSampleEvery: -1}
	res, err := RunScale(off)
	if err != nil {
		t.Fatal(err)
	}
	if res.SampledOps[0] != 0 {
		t.Fatalf("sampling disabled but %v ops sampled", res.SampledOps[0])
	}
}

// TestGoldenScaleOracleAudit pins an oracle-mode sweep, sampled exact
// audit included, to the bit: every float field of ScaleResult on two
// grids above OracleMinN, three seeds each, against values recorded
// before the audit's search became an A* over the oracle's landmark
// table. The audit's exact terms come from that search, so a wrong
// bound or early exit moves SampledMaint, SampledQuery, or Overestimate.
// Workers=1 and Workers=4 must agree; under `make race` the four workers
// search one shared oracle concurrently.
func TestGoldenScaleOracleAudit(t *testing.T) {
	golden := []struct {
		field string
		bits  [2]uint64
	}{
		{"Stretch", [2]uint64{0x3ffdb6db6db6db6e, 0x4001249249249249}},
		{"Maintenance", [2]uint64{0x4023d49f49f49f4a, 0x402ad3e93e93e93e}},
		{"Query", [2]uint64{0x4007b9201b0ca53c, 0x40085e18b55dd193}},
		{"SampledMaint", [2]uint64{0x40271984cb7feb32, 0x4029398bd4f98bd6}},
		{"SampledQuery", [2]uint64{0x4006e7887410a8a7, 0x400537ea44fbf37e}},
		{"Overestimate", [2]uint64{0x3ff0000000000000, 0x3ff00cc29786c760}},
		{"SampledOps", [2]uint64{0x403f555555555554, 0x4041d55555555555}},
	}
	for _, workers := range []int{1, 4} {
		res, err := RunScale(ScaleConfig{
			Sizes:          []int{400, 900},
			Objects:        12,
			MovesPerObject: 40,
			Queries:        80,
			Seeds:          3,
			OracleMinN:     256,
			Workers:        workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OracleMode[0] || !res.OracleMode[1] {
			t.Fatalf("workers=%d: cells ran on the exact metric: %v", workers, res.OracleMode)
		}
		fields := map[string][]float64{
			"Stretch":      res.Stretch,
			"Maintenance":  res.Maintenance,
			"Query":        res.Query,
			"SampledMaint": res.SampledMaint,
			"SampledQuery": res.SampledQuery,
			"Overestimate": res.Overestimate,
			"SampledOps":   res.SampledOps,
		}
		for _, g := range golden {
			for i, want := range g.bits {
				if got := fields[g.field][i]; math.Float64bits(got) != want {
					t.Errorf("workers=%d: %s[%d] = %v (%#x), golden %v (%#x)", workers, g.field, i,
						got, math.Float64bits(got), math.Float64frombits(want), want)
				}
			}
		}
	}
}
