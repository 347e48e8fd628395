// Command motbench is the end-to-end benchmark of the MOT reproduction.
// It runs named workloads, prints every metric with its unit, checks
// every answer, and ends its standard output with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Serving workloads drive a real motserve process over loopback HTTP
// with an open-loop Poisson generator; batch workloads run the
// paper-sweep harness in a re-executed child. -trace 1 replaces the
// end-to-end metrics by per-layer ones: a traced pass plus in-process
// replays of the same op stream through serve, runtime, core, hier and
// graph, written as a Chrome trace.
//
// Usage, from the repository root (run.sh builds motbench and motserve
// into .bench_build first):
//
//	bash cmd/motbench/run.sh --workload serve-walk --seed 1 --seconds 15 --trace 0
//	bash cmd/motbench/run.sh --seed 1 -out a.jsonl             # every workload
//	.bench_build/motbench -compare a.jsonl b.jsonl             # repeatability
//
// See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
)

// options are one run's settings.
type options struct {
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	motserve string
	tr       *tracer // per-layer spans; nil untraced
}

// violation marks a failed correctness check, as opposed to a failure
// to run: the run still reports its result, with correct=false.
type violation struct{ error }

func (v violation) Unwrap() error { return v.error }

// result is one workload run, as written to the -out record file.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Violation string             `json:"violation,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	SelfUS    map[string]float64 `json:"self_us,omitempty"` // mean self time per span name
	TraceFile string             `json:"trace_file,omitempty"`
	Env       envInfo            `json:"env"`
}

// envInfo records where and how a run was measured.
type envInfo struct {
	NumCPU           int     `json:"num_cpu"`
	ClientGOMAXPROCS int     `json:"client_gomaxprocs"`
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"` // motserve and the batch child inherit GOMAXPROCS
	GoVersion        string  `json:"go_version"`
	Commit           string  `json:"commit"`
	Seed             int64   `json:"seed"`
	Seconds          float64 `json:"seconds"`
	LatenessP50Ms    float64 `json:"generator_lateness_p50_ms,omitempty"`
	LatenessP99Ms    float64 `json:"generator_lateness_p99_ms,omitempty"`
	// MotbenchPeakRSSMB is motbench's own peak memory; the traced run's
	// in-process replays build a second substrate.
	MotbenchPeakRSSMB float64 `json:"motbench_peak_rss_mb"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("motbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: serve-walk, serve-far, sweep-paper, scale-10k or all")
	seed := fs.Int64("seed", 1, "workload seed; it shapes only the generated inputs")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	out := fs.String("out", "", "append each run's full record as a JSON line to this file")
	dir := fs.String("dir", ".bench_build/traces", "directory for Chrome traces")
	motserve := fs.String("motserve", ".bench_build/motserve", "motserve binary")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition (metrics, units, bounds)")
	smoke := fs.Bool("smoke", false, "64-node grids and tiny sweeps, for the self-test")
	compare := fs.Bool("compare", false, "compare two -out files: motbench -compare a.jsonl b.jsonl")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "motbench: -trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "motbench: -seconds must be positive")
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, traced: *trace == 1, smoke: *smoke, motserve: *motserve}

	if os.Getenv(childEnv) != "" {
		w, err := findWorkload(*name, *smoke)
		if err != nil || w.batch == nil {
			fmt.Fprintln(stderr, "motbench child: no batch workload", *name)
			return 2
		}
		return childMain(w, opt)
	}
	bf, err := loadBench(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "motbench:", err)
		return 1
	}
	if *compare {
		return runCompare(fs.Args(), bf, stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "motbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads(*smoke)
	} else {
		w, err := findWorkload(*name, *smoke)
		if err != nil {
			fmt.Fprintln(stderr, "motbench:", err)
			return 2
		}
		ws = []*workload{w}
	}

	code := 0
	summary := lastLine{Correct: true, Metrics: map[string]valueUnit{}}
	for _, w := range ws {
		line, err := runOne(w, opt, bf, *dir, *out, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "motbench: %s: %v\n", w.name, err)
			return 1
		}
		if len(ws) == 1 {
			summary = line
		} else {
			summary.Correct = summary.Correct && line.Correct
			summary.Attempted += line.Attempted
			summary.Failed += line.Failed
			for k, v := range line.Metrics {
				summary.Metrics[w.name+"."+k] = v
			}
		}
		if !line.Correct {
			code = 1
		}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "motbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return code
}

// lastLine is the JSON object motbench prints last.
type lastLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// runOne runs one workload, prints its metrics, writes its trace and
// record, and returns its result line. An error means the run could not
// be measured; a failed check is reported in the line instead.
func runOne(w *workload, opt options, bf *benchFile, dir, out string, stdout, stderr io.Writer) (lastLine, error) {
	if opt.traced {
		opt.tr = newTracer(1 << 18)
	}
	var res *result
	var err error
	if w.serve != nil {
		res, err = runServe(w, opt)
	} else {
		res, err = runBatch(w, opt)
	}
	if res == nil || (err != nil && !errors.As(err, new(violation))) {
		return lastLine{}, err
	}
	res.Seed, res.Traced, res.Correct = opt.seed, opt.traced, err == nil
	if err != nil {
		res.Violation = err.Error()
		fmt.Fprintf(stderr, "motbench: %s: CHECK FAILED: %v\n", w.name, err)
	}
	res.Env = environment(opt, res.Metrics)
	line := lastLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueUnit{}}
	if res.Correct {
		if line.Metrics, err = bf.lineMetrics(res.Metrics, opt.traced); err != nil {
			return lastLine{}, err
		}
	}
	if opt.traced && res.Correct {
		res.TraceFile = filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", w.name, opt.seed))
		if err := opt.tr.writeChrome(res.TraceFile); err != nil {
			return lastLine{}, fmt.Errorf("writing the trace: %w", err)
		}
		res.SelfUS = opt.tr.meanSelfUS()
	}
	report(stdout, stderr, res, line)
	if out != "" {
		if err := appendRecord(out, res); err != nil {
			return lastLine{}, err
		}
	}
	return line, nil
}

// report prints the result-line metrics to stdout and everything else
// measured to stderr, each with its unit.
func report(stdout, stderr io.Writer, res *result, line lastLine) {
	mode := "end-to-end"
	if res.Traced {
		mode = "per-layer"
	}
	fmt.Fprintf(stdout, "%s seed %d (%s): correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, mode, res.Correct, res.Attempted, res.Failed)
	for _, k := range sortedKeys(line.Metrics) {
		fmt.Fprintf(stdout, "  %-30s %14.6g %s\n", k, line.Metrics[k].Value, line.Metrics[k].Unit)
	}
	fmt.Fprintf(stderr, "%s: every metric measured\n", res.Workload)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stderr, "  %-30s %14.6g %s\n", k, res.Metrics[k], units[k])
	}
	if res.TraceFile != "" {
		fmt.Fprintf(stderr, "  mean self time per span (us):")
		for _, k := range sortedKeys(res.SelfUS) {
			fmt.Fprintf(stderr, " %s=%.3g", k, res.SelfUS[k])
		}
		fmt.Fprintf(stderr, "\n  trace: %s (open it at https://ui.perfetto.dev)\n", res.TraceFile)
	}
	e := res.Env
	fmt.Fprintf(stderr, "  env: num_cpu=%d client_gomaxprocs=%d server_gomaxprocs=%d %s commit=%s motbench_peak_rss=%.0fMB\n",
		e.NumCPU, e.ClientGOMAXPROCS, e.ServerGOMAXPROCS, e.GoVersion, e.Commit, e.MotbenchPeakRSSMB)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendRecord appends res to path as one JSON line, leaving out values
// JSON cannot carry (a metric with no samples is NaN).
func appendRecord(path string, res *result) error {
	clean := *res
	clean.Metrics = map[string]float64{}
	for k, v := range res.Metrics {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			clean.Metrics[k] = v
		}
	}
	b, err := json.Marshal(clean)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// environment records the run's machine and settings; m supplies the
// generator lateness of serving runs.
func environment(opt options, m map[string]float64) envInfo {
	server := goruntime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		server = v
	}
	rss, _ := peakRSSMB(os.Getpid()) // diagnostic only
	return envInfo{
		NumCPU:            goruntime.NumCPU(),
		ClientGOMAXPROCS:  goruntime.GOMAXPROCS(0),
		ServerGOMAXPROCS:  server,
		GoVersion:         goruntime.Version(),
		Commit:            commit(),
		Seed:              opt.seed,
		Seconds:           opt.seconds,
		LatenessP50Ms:     m["client.lateness_p50_ms"],
		LatenessP99Ms:     m["client.lateness_p99_ms"],
		MotbenchPeakRSSMB: rss,
	}
}

// commit names the checked-out commit, or "unknown" outside a git
// checkout. Git may not look above the working directory.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// readRecords loads the run records of an -out file.
func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
