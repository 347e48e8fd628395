package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestMain lets the test binary stand in for motbench when a batch
// workload re-executes it as the child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmokeEmitsEveryMetric runs every workload on 64-node grids with
// short phases, untraced and traced, and checks that each prints every
// BENCHMARK.json metric of its mode with the right unit and passes every
// correctness check.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs motserve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "motserve")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/motserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building motserve: %v\n%s", err, out)
	}
	benchPath := filepath.Join("..", "..", "BENCHMARK.json")
	bf, err := loadBench(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-smoke", "-seconds", "1", "-trace", trace, "-motserve", bin,
			"-bench", benchPath, "-dir", dir, "-out", filepath.Join(dir, "runs.jsonl")}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last lastLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if !last.Correct || last.Attempted == 0 {
			t.Fatalf("trace %s: correct=%v attempted=%d\n%s", trace, last.Correct, last.Attempted, stderr.String())
		}
		specs := bf.EndToEnd
		if trace == "1" {
			specs = bf.PerLayer
		}
		for _, w := range workloads(true) {
			for _, m := range specs {
				got, ok := last.Metrics[w.name+"."+m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("trace %s: %s missing %s [%s]: got %+v", trace, w.name, m.Name, m.Unit, got)
				}
			}
		}
	}
	recs, err := readRecords(filepath.Join(dir, "runs.jsonl"))
	if err != nil || len(recs) != 2*len(workloads(true)) {
		t.Fatalf("records: %d, %v", len(recs), err)
	}
}

// TestCheckerTripsOnStaleAnswer feeds the answer checker a query that
// returns a position an acknowledged move had already replaced.
func TestCheckerTripsOnStaleAnswer(t *testing.T) {
	move := rec{op: op{kind: kMove, obj: 0, node: 6}, pickup: 10, done: 20, status: 200, answer: -1}
	query := func(at, answer int32, sent, done int64) rec {
		return rec{op: op{kind: kQuery, obj: 0, node: at}, pickup: sent, done: done, status: 200, answer: answer}
	}
	cases := []struct {
		name  string
		recs  []rec
		stale bool
	}{
		{"fresh after ack", []rec{move, query(1, 6, 30, 40)}, false},
		{"stale after ack", []rec{move, query(1, 5, 30, 40)}, true},
		{"old while in flight", []rec{move, query(1, 5, 15, 18)}, false},
		{"new while in flight", []rec{move, query(1, 6, 15, 18)}, false},
		{"never sent position", []rec{move, query(1, 7, 30, 40)}, true},
		{"refused move not applied", []rec{{op: move.op, pickup: 10, done: 20, status: 429}, query(1, 6, 30, 40)}, true},
		{"server error", []rec{{op: move.op, pickup: 10, done: 20, status: 500}}, true},
	}
	for _, c := range cases {
		err := checkServed([]int32{5}, c.recs)
		if (err != nil) != c.stale {
			t.Errorf("%s: checkServed = %v, want violation %v", c.name, err, c.stale)
		}
	}
}

// TestStreamsAreSeeded pins that the op streams are functions of the
// seed: identical for equal seeds, different across seeds.
func TestStreamsAreSeeded(t *testing.T) {
	g := graph.NearSquareGrid(64)
	for _, w := range workloads(true) {
		gen := func(seed int64) ([]op, []op) {
			if w.serve != nil {
				s := newStream(w.serve, g, seed, 0, w.serve.objects)
				ops := make([]op, 500)
				for i := range ops {
					ops[i] = s.next()
				}
				return s.publishes(), ops
			}
			pubs, ops, err := batchStream(w.batch, graph.NearSquareGrid(w.batch.replayNodes), seed)
			if err != nil {
				t.Fatal(err)
			}
			return pubs, ops
		}
		p1, o1 := gen(1)
		p1b, o1b := gen(1)
		p2, o2 := gen(2)
		if !reflect.DeepEqual(p1, p1b) || !reflect.DeepEqual(o1, o1b) {
			t.Errorf("%s: seed 1 gave two different streams", w.name)
		}
		if reflect.DeepEqual(p1, p2) && reflect.DeepEqual(o1, o2) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
	}
}
