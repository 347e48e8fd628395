// Command motsim regenerates the paper's evaluation figures (Figs. 4–15):
// maintenance and query cost ratios of MOT vs STUN vs Z-DAT (± shortcuts)
// on grid networks in one-by-one and concurrent executions, and the
// per-node load comparisons.
//
// Usage:
//
//	motsim -fig 4 -scale 1     # one figure at full (paper) scale
//	motsim -fig all -scale 0.1 # all figures, workload scaled to 10%
//	motsim -fig 5 -workers 8   # sweep cells on 8 goroutines
//
// Scale 1 reproduces the paper's exact setting (grids of 10–1024 nodes,
// 100/1000 objects, 1000 maintenance operations per object, 5 seeds) and
// takes a long while; small scales finish in seconds to minutes. A
// -scale outside (0,1], a -seeds below 1 or a negative -workers is a
// usage error (exit 2), never replaced by a default.
//
// -workers sizes the sweep worker pool (default: one per CPU). Each
// (size, seed) cell derives its PRNG from an independent
// (baseSeed, size, seedIndex) stream, so the printed figures are
// byte-identical for every worker count.
//
// -chaos seed,rate runs the fault-injection tier instead of a figure:
// seeded crash/drop/delay schedules on both execution substrates, with
// recovery invariants asserted at quiescence. The printed summary is
// byte-identical for a given (seed, rate) at any -workers value; -format
// md/csv selects the report renderer.
//
// -churn rate,seed runs the sustained-churn tier instead of a figure:
// seeded fail/recover schedules (rate is the fraction of sensors failed
// per epoch, within the paper's 1–10% regime) interleaved with
// tracking operations on the incremental repair engine, a rebuild
// baseline, a fault-free control, and the de Bruijn relabeling, with the
// recovery SLO asserted after every epoch. The summary is byte-identical
// for a given (rate, seed) at any -workers value; -format md/csv selects
// the report renderer:
//
//	motsim -churn 0.05,7            # 5% churn per epoch, base seed 7
//	motsim -churn 0.05,7 -format csv
//
// -trace/-metrics/-chrome run the observability sweep instead of a
// figure: one seeded workload replayed on the sequential core (load
// balancing on and off), the discrete-event simulator, and the goroutine
// runtime, each under a span/metrics recorder:
//
//	motsim -trace out.jsonl -metrics out.csv   # spans + metrics
//	motsim -chrome trace.json                  # open in ui.perfetto.dev
//	motsim -trace out.jsonl -obs-size 256 -obs-seed 3
//
// Artifacts are byte-identical for a given (-obs-size, -obs-seed) at any
// -workers value; the §5 per-node load report prints to stdout. Without
// any obs or chaos flag, motsim's figure output is unchanged.
// -live-summary attaches a live wall-clock recorder to the sweep's
// runtime run and prints p50/p99 tail latencies per op class to stderr
// at exit; stdout and every artifact file keep their exact
// deterministic bytes:
//
//	motsim -live-summary                       # stderr-only latency recap
//	motsim -trace out.jsonl -live-summary      # artifacts unchanged
//
// -benchjson runs the perf-trajectory benchmark suite instead of a
// figure and writes a JSON report (frozen vs lazy metric reads,
// all-pairs precompute, a 16×16-grid sweep with the substrate cache on
// vs off, oracle build/read costs vs exact, a 10k oracle scale cell,
// and a sustained-churn cell with the repair-vs-rebuild ratio):
//
//	motsim -benchjson BENCH_08.json    # what `make bench-json` runs
//
// -oracle runs the large-network scale sweep instead of a figure: MOT
// cost-ratio cells on near-square grids using the sub-quadratic
// landmark/ball distance oracle (exact frozen metric below 2048 nodes),
// with sampled exact re-metering auditing the oracle's estimates:
//
//	motsim -oracle                         # one 10 000-node cell
//	motsim -oracle -nodes 10000,40000      # explicit size sweep
//	motsim -oracle -nodes 2048 -seeds 3    # averaged over 3 seeds
//
// The printed table is byte-identical for any -workers value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/report"
)

// runObs runs the observability sweep (one seeded workload traced on the
// sequential core with load balancing on and off, the discrete-event
// simulator, and the goroutine runtime) and writes the requested
// artifacts. All three formats are byte-deterministic for a given
// (size, seed) at any -workers value; -live-summary only adds stderr
// chatter (wall-clock p50/p99 per op class from the live recorder) and
// leaves every stdout/file byte unchanged.
func runObs(trace, metrics, chrome string, size int, seed int64, workers int, liveSummary bool) {
	res, err := experiments.RunObs(experiments.ObsConfig{
		BaseSeed:      seed,
		Size:          size,
		Workers:       workers,
		LiveTelemetry: liveSummary,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "motsim: obs: %v\n", err)
		os.Exit(1)
	}
	emit := func(path string, write func(io.Writer) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "motsim: %v\n", err)
			os.Exit(1)
		}
		werr := write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "motsim: writing %s: %v\n", path, werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	emit(trace, res.WriteTraceJSONL)
	emit(metrics, res.WriteMetricsCSV)
	emit(chrome, res.WriteChromeTrace)
	if liveSummary {
		// Wall-clock tail latencies are diagnostics, not measurements:
		// they print to stderr only, and the live recorders are dropped
		// before rendering so the stdout report keeps its exact live-off
		// layout (byte-identical to a run without -live-summary).
		for _, lrec := range res.Live {
			if lrec != nil {
				lrec.WriteSummary(os.Stderr)
			}
		}
		res.Live = nil
	}
	// The per-node load report (§5: balanced vs unbalanced placement)
	// goes to stdout so the run leaves a human-readable headline.
	if err := report.MarkdownObsLoad(os.Stdout, res, 0); err != nil {
		fmt.Fprintf(os.Stderr, "motsim: obs report: %v\n", err)
		os.Exit(1)
	}
}

// runChaos parses "seed,rate" and runs the chaos tier with rate as the
// message drop rate (0 selects the default mix); delay and crash rates
// keep their tier defaults. format picks the renderer (text, md, csv).
func runChaos(spec string, workers int, format string) {
	seed, rate, err := parseChaosSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "motsim: %v\n", err)
		os.Exit(2)
	}
	res, err := experiments.RunChaos(experiments.ChaosConfig{
		BaseSeed: seed,
		DropRate: rate,
		Workers:  workers,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "motsim: chaos: %v\n", err)
		os.Exit(1)
	}
	switch format {
	case "md":
		err = report.MarkdownChaos(os.Stdout, res)
	case "csv":
		err = report.CSVChaos(os.Stdout, res)
	default:
		experiments.PrintChaos(os.Stdout, res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "motsim: chaos report: %v\n", err)
		os.Exit(1)
	}
}

// runChurn parses "rate,seed" and runs the sustained-churn tier: rate is
// the per-epoch fraction of failed sensors in the paper's 1–10% regime
// (anything outside is a usage error), seed salts every schedule stream.
// format picks the renderer (text, md, csv).
func runChurn(spec string, workers int, format string) {
	rate, seed, err := parseChurnSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "motsim: %v\n", err)
		os.Exit(2)
	}
	res, err := experiments.RunChurn(experiments.ChurnConfig{
		BaseSeed:  seed,
		ChurnRate: rate,
		Workers:   workers,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "motsim: churn: %v\n", err)
		os.Exit(1)
	}
	switch format {
	case "md":
		err = report.MarkdownChurn(os.Stdout, res)
	case "csv":
		err = report.CSVChurn(os.Stdout, res)
	default:
		experiments.PrintChurn(os.Stdout, res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "motsim: churn report: %v\n", err)
		os.Exit(1)
	}
}

// runOracle runs the large-network scale sweep (oracle substrate) and
// prints the per-size table to stdout.
func runOracle(nodes string, seeds, workers int, loadBalance bool) {
	cfg := experiments.ScaleConfig{
		Seeds:       seeds,
		Workers:     workers,
		LoadBalance: loadBalance,
	}
	if nodes != "" {
		for _, part := range strings.Split(nodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "motsim: -nodes wants positive sizes (e.g. -nodes 10000,40000), got %q\n", part)
				os.Exit(2)
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}
	res, err := experiments.RunScale(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "motsim: scale: %v\n", err)
		os.Exit(1)
	}
	experiments.PrintScale(os.Stdout, res)
}

// runBenchJSON runs the perf-trajectory benchmark suite and writes the
// JSON artifact (BENCH_08.json in CI). Progress goes to stderr so the
// artifact file holds only the report bytes.
func runBenchJSON(path string) {
	fmt.Fprintln(os.Stderr, "motsim: running benchmark suite (a minute or so)...")
	rep := bench.Run()
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "motsim: %v\n", err)
		os.Exit(1)
	}
	werr := bench.WriteJSON(f, rep)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "motsim: %v\n", werr)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "motsim: wrote %s (%d benchmarks)\n", path, len(rep.Benchmarks))
}

func main() {
	fig := flag.String("fig", "all", "figure number (4..15) or 'all'")
	scale := flag.Float64("scale", 0.1, "workload scale in (0,1]; 1 = the paper's full setting")
	format := flag.String("format", "text", "output format: text, md, or csv")
	workers := flag.Int("workers", 0, "sweep worker pool size; 0 = one per CPU (output is identical for any value)")
	chaosSpec := flag.String("chaos", "", "run the chaos tier as 'seed,rate' (e.g. 1,0.15) instead of a figure")
	churnSpec := flag.String("churn", "", "run the sustained-churn tier as 'rate,seed' (e.g. 0.05,7) instead of a figure")
	trace := flag.String("trace", "", "write an observability span trace (JSON lines) to this file")
	metrics := flag.String("metrics", "", "write observability metrics (CSV) to this file")
	chrome := flag.String("chrome", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	obsSize := flag.Int("obs-size", 256, "sensor count of the observability sweep (16x16 grid by default)")
	obsSeed := flag.Int64("obs-seed", 0, "base seed of the observability sweep")
	liveSummary := flag.Bool("live-summary", false, "attach a live wall-clock recorder to the obs sweep's runtime run and print p50/p99 per op class to stderr (stdout stays deterministic)")
	benchJSON := flag.String("benchjson", "", "run the substrate/harness benchmark suite and write BENCH_08-style JSON to this file")
	oracle := flag.Bool("oracle", false, "run the large-network scale sweep (sub-quadratic distance oracle) instead of a figure")
	nodes := flag.String("nodes", "", "comma-separated node counts of the -oracle sweep (default 10000)")
	seeds := flag.Int("seeds", 1, "seeds averaged per -oracle cell")
	oracleLB := flag.Bool("oracle-lb", false, "enable §5 load-balanced placement in the -oracle sweep")
	list := flag.Bool("list", false, "list available figures and exit")
	quiet := flag.Bool("quiet", false, "suppress the per-figure wall-clock summary")
	flag.Parse()
	if err := checkSizeFlags(*scale, *seeds, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "motsim: %v\n", err)
		os.Exit(2)
	}

	if *benchJSON != "" {
		runBenchJSON(*benchJSON)
		return
	}
	if *oracle {
		runOracle(*nodes, *seeds, *workers, *oracleLB)
		return
	}
	if *chaosSpec != "" {
		runChaos(*chaosSpec, *workers, *format)
		return
	}
	if *churnSpec != "" {
		runChurn(*churnSpec, *workers, *format)
		return
	}
	if *trace != "" || *metrics != "" || *chrome != "" || *liveSummary {
		runObs(*trace, *metrics, *chrome, *obsSize, *obsSeed, *workers, *liveSummary)
		return
	}

	figs := experiments.Figures(*scale)
	if *list {
		for _, id := range experiments.FigureIDs(figs) {
			fmt.Printf("fig %2d: %s\n", id, figs[id].Title)
		}
		return
	}

	var ids []int
	if *fig == "all" {
		ids = experiments.FigureIDs(figs)
	} else {
		id, err := strconv.Atoi(*fig)
		if err != nil {
			fmt.Fprintf(os.Stderr, "motsim: invalid figure %q\n", *fig)
			os.Exit(2)
		}
		if _, ok := figs[id]; !ok {
			fmt.Fprintf(os.Stderr, "motsim: unknown figure %d (have 4..15)\n", id)
			os.Exit(2)
		}
		ids = []int{id}
	}

	for _, id := range ids {
		start := time.Now()
		f := figs[id].WithWorkers(*workers)
		var err error
		switch *format {
		case "text":
			err = f.Run(os.Stdout)
		case "md":
			err = f.RunWith(os.Stdout, func(res *experiments.CostRatioResult) error {
				return report.MarkdownCostRatio(os.Stdout, res, f.IsQuery)
			}, func(res *experiments.LoadResult) error {
				return report.MarkdownLoad(os.Stdout, res)
			})
		case "csv":
			err = f.RunWith(os.Stdout, func(res *experiments.CostRatioResult) error {
				return report.CSVCostRatio(os.Stdout, res)
			}, func(res *experiments.LoadResult) error {
				return report.CSVLoad(os.Stdout, res)
			})
		default:
			fmt.Fprintf(os.Stderr, "motsim: unknown format %q\n", *format)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "motsim: figure %d: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
		// Wall-clock timing is driver chatter, not part of the figure:
		// it goes to stderr so redirected result files hold only
		// deterministic bytes, and -quiet silences it entirely.
		if !*quiet {
			fmt.Fprintf(os.Stderr, "(figure %d took %v)\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
}
