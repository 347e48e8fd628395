package diff

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func report(results ...bench.Result) *bench.Report {
	return &bench.Report{Schema: "mot-bench/v1", Benchmarks: results}
}

func pinned(name string, ns float64, allocs int64) bench.Result {
	return bench.Result{Name: name, NsPerOp: ns, AllocsPerOp: allocs, Pinned: true}
}

func free(name string, ns float64, allocs int64) bench.Result {
	return bench.Result{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
}

// The gate's reason to exist: a deliberately injected >15% ns/op
// regression on a pinned benchmark must fail.
func TestDiffFailsOnNsRegression(t *testing.T) {
	rep := Diff(report(pinned("metric/dist-frozen", 100, 0)),
		report(pinned("metric/dist-frozen", 120, 0)), Options{})
	if rep.OK() {
		t.Fatal("+20% pinned ns/op regression passed the gate")
	}
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "+20.0%") {
		t.Fatalf("failures: %v", rep.Failures)
	}
}

func TestDiffPassesWithinTolerance(t *testing.T) {
	rep := Diff(
		report(pinned("metric/dist-frozen", 100, 0), pinned("runtime/ops-live-on", 5000, 40)),
		report(pinned("metric/dist-frozen", 110, 0), pinned("runtime/ops-live-on", 4500, 40)),
		Options{})
	if !rep.OK() {
		t.Fatalf("+10%% should be inside the 15%% tolerance: %v", rep.Failures)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if d := rep.Rows[0].NsDelta; d < 0.099 || d > 0.101 {
		t.Fatalf("delta = %v, want 0.10", d)
	}
}

func TestDiffFailsOnAnyAllocRegression(t *testing.T) {
	rep := Diff(report(pinned("live/nil-sink", 2, 0)),
		report(pinned("live/nil-sink", 2, 1)), Options{})
	if rep.OK() {
		t.Fatal("allocs/op 0 -> 1 on a pinned benchmark passed the gate")
	}
	if !strings.Contains(rep.Failures[0], "allocs/op 0 -> 1") {
		t.Fatalf("failures: %v", rep.Failures)
	}
}

// Deleting a pinned benchmark must not be an escape from the gate.
func TestDiffFailsOnMissingPinned(t *testing.T) {
	rep := Diff(report(pinned("oracle/dist-1024", 30, 0)), report(), Options{})
	if rep.OK() {
		t.Fatal("vanished pinned benchmark passed the gate")
	}
	if !strings.Contains(rep.Failures[0], "missing from current run") {
		t.Fatalf("failures: %v", rep.Failures)
	}
}

// Unpinned rows inform the trajectory; they never gate, however badly
// they move. New benchmarks have no baseline and never gate either.
func TestDiffToleratesUnpinnedAndNew(t *testing.T) {
	rep := Diff(
		report(free("sweep/256-cache-on", 1000, 50)),
		report(free("sweep/256-cache-on", 9000, 500), pinned("runtime/ops-live-off", 5000, 40)),
		Options{})
	if !rep.OK() {
		t.Fatalf("unpinned regression or new pinned bench gated: %v", rep.Failures)
	}
	var newRow Row
	for _, r := range rep.Rows {
		if r.Name == "runtime/ops-live-off" {
			newRow = r
		}
	}
	if !newRow.MissingBase {
		t.Fatalf("new benchmark not marked MissingBase: %+v", newRow)
	}
}

func TestDiffCustomTolerance(t *testing.T) {
	base := report(pinned("metric/dist-frozen", 100, 0))
	cur := report(pinned("metric/dist-frozen", 140, 0))
	if Diff(base, cur, Options{MaxNsRegress: 0.5}).OK() != true {
		t.Fatal("+40% should pass a 50% tolerance")
	}
	if Diff(base, cur, Options{MaxNsRegress: 0.3}).OK() {
		t.Fatal("+40% should fail a 30% tolerance")
	}
}

// Round-trip through the on-disk artifact shape `make bench-gate`
// actually consumes: write fixture JSON, load both sides, diff.
func TestLoadReportAndGateFixture(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *bench.Report) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := bench.WriteJSON(f, rep); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	basePath := write("base.json", report(pinned("metric/dist-frozen", 7.3, 0), free("metric/precompute-256", 250000, 600)))
	curPath := write("cur.json", report(pinned("metric/dist-frozen", 9.1, 0), free("metric/precompute-256", 251000, 600)))

	base, err := LoadReport(basePath)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := LoadReport(curPath)
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(base, cur, Options{})
	if rep.OK() {
		t.Fatal("7.3 -> 9.1 ns/op (+24.7%) on a pinned row passed")
	}

	var md strings.Builder
	if err := WriteMarkdown(&md, rep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Gate: **FAIL**", "metric/dist-frozen", "+24.7%", "| yes |", "metric/precompute-256"} {
		if !strings.Contains(md.String(), want) {
			t.Fatalf("markdown missing %q:\n%s", want, md.String())
		}
	}
}

func TestLoadReportRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(bad); err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Fatalf("err = %v", err)
	}
	if _, err := LoadReport(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestWriteMarkdownCleanPass(t *testing.T) {
	rep := Diff(report(pinned("live/nil-sink", 2.1, 0)),
		report(pinned("live/nil-sink", 2.0, 0)), Options{})
	var md strings.Builder
	if err := WriteMarkdown(&md, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Gate: **pass**") {
		t.Fatalf("clean diff not marked pass:\n%s", md.String())
	}
}

// A pinned row the baseline lacks is not gated; the report names it
// under the verdict, pass or fail, and leaves the verdict alone.
func TestDiffListsPinnedRowsAbsentFromBaseline(t *testing.T) {
	const note = "graph/pair-dist-10000: pinned, not gated: absent from the baseline"
	for _, tc := range []struct {
		curNs   float64
		verdict string
	}{
		{100, "Gate: **pass**"},
		{200, "Gate: **FAIL**"},
	} {
		rep := Diff(
			report(pinned("oracle/dist-1024", 100, 0)),
			report(pinned("oracle/dist-1024", tc.curNs, 0), pinned("graph/pair-dist-10000", 5000, 0), free("sim/concurrent-256", 1, 1)),
			Options{})
		if rep.OK() != (tc.curNs == 100) {
			t.Fatalf("cur %v ns/op: OK = %t, failures %v", tc.curNs, rep.OK(), rep.Failures)
		}
		if len(rep.Ungated) != 1 || rep.Ungated[0] != note {
			t.Fatalf("ungated = %q, want [%q]", rep.Ungated, note)
		}
		var md strings.Builder
		if err := WriteMarkdown(&md, rep); err != nil {
			t.Fatal(err)
		}
		out := md.String()
		v, n := strings.Index(out, tc.verdict), strings.Index(out, "- "+note)
		if v < 0 || n < v || n > strings.Index(out, "| benchmark |") {
			t.Fatalf("want %q, then the note, then the table:\n%s", tc.verdict, out)
		}
		if strings.Contains(out, "sim/concurrent-256: pinned") {
			t.Fatalf("unpinned new row listed as pinned:\n%s", out)
		}
	}
}
