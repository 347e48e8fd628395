// Package diff compares two mot-bench/v1 reports — the committed
// BENCH_*.json baseline and a freshly measured run — and decides
// whether the pinned benchmarks regressed. It is the engine behind
// cmd/benchdiff and `make bench-gate`: CI fails when any pinned row
// grows more than the ns/op tolerance (default 15%, absorbing 1-CPU
// runner noise) or allocates more per op at all (allocations are
// deterministic, so the tolerance there is zero). Unpinned rows are
// reported in the delta table for the trajectory but never gate, and so
// are pinned rows the baseline lacks, which the report lists by name.
package diff

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/bench"
)

// Options tunes the gate.
type Options struct {
	// MaxNsRegress is the tolerated fractional ns/op growth on pinned
	// benchmarks (0.15 = +15%). Non-positive selects the default 0.15.
	MaxNsRegress float64
}

// Row is one benchmark's before/after comparison.
type Row struct {
	Name        string
	Pinned      bool
	BaseNs      float64
	CurNs       float64
	NsDelta     float64 // fractional: 0.10 = +10%
	BaseAllocs  int64
	CurAllocs   int64
	MissingBase bool // present now, absent in the baseline (new benchmark)
	MissingCur  bool // present in the baseline, absent now
}

// Report is the full comparison: every benchmark seen in either input,
// sorted by name, plus the gate verdicts.
type Report struct {
	Schema   string
	Rows     []Row
	Failures []string
	// Ungated names each pinned row absent from the baseline: nothing
	// gates it until the baseline is re-taken.
	Ungated []string
}

// OK reports whether the gate passes.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// Diff compares a baseline report against the current one.
func Diff(base, cur *bench.Report, opts Options) *Report {
	if opts.MaxNsRegress <= 0 {
		opts.MaxNsRegress = 0.15
	}
	baseBy := map[string]bench.Result{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	curBy := map[string]bench.Result{}
	for _, c := range cur.Benchmarks {
		curBy[c.Name] = c
	}
	names := make([]string, 0, len(baseBy)+len(curBy))
	for n := range baseBy {
		names = append(names, n)
	}
	for n := range curBy {
		if _, dup := baseBy[n]; !dup {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	rep := &Report{Schema: cur.Schema}
	for _, name := range names {
		b, inBase := baseBy[name]
		c, inCur := curBy[name]
		row := Row{
			Name:        name,
			Pinned:      (inCur && c.Pinned) || (!inCur && b.Pinned),
			MissingBase: !inBase,
			MissingCur:  !inCur,
		}
		if inBase {
			row.BaseNs, row.BaseAllocs = b.NsPerOp, b.AllocsPerOp
		}
		if inCur {
			row.CurNs, row.CurAllocs = c.NsPerOp, c.AllocsPerOp
		}
		switch {
		case !inCur:
			// A pinned benchmark that vanishes is a gate failure — deleting
			// the measurement must never be the easy way past it.
			if b.Pinned {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("%s: pinned benchmark missing from current run", name))
			}
		case !inBase:
			// New benchmark: nothing to regress against; next baseline
			// refresh adopts it. A pinned one is named, so the gap shows.
			if c.Pinned {
				rep.Ungated = append(rep.Ungated, name+": pinned, not gated: absent from the baseline")
			}
		default:
			if row.BaseNs > 0 {
				row.NsDelta = row.CurNs/row.BaseNs - 1
			}
			if !c.Pinned {
				break
			}
			if row.NsDelta > opts.MaxNsRegress {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("%s: ns/op %.1f -> %.1f (%+.1f%%, tolerance +%.0f%%)",
						name, row.BaseNs, row.CurNs, 100*row.NsDelta, 100*opts.MaxNsRegress))
			}
			if row.CurAllocs > row.BaseAllocs {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("%s: allocs/op %d -> %d (any growth fails)",
						name, row.BaseAllocs, row.CurAllocs))
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// LoadReport reads a mot-bench/v1 JSON artifact from disk.
func LoadReport(path string) (*bench.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep bench.Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	if rep.Schema != "mot-bench/v1" {
		return nil, fmt.Errorf("benchdiff: %s: unknown schema %q", path, rep.Schema)
	}
	return &rep, nil
}

// WriteMarkdown renders the comparison as the delta table CI uploads.
func WriteMarkdown(w io.Writer, rep *Report) error {
	if _, err := fmt.Fprintf(w, "# Bench delta (%s)\n\n", rep.Schema); err != nil {
		return err
	}
	if rep.OK() {
		if _, err := fmt.Fprintf(w, "Gate: **pass** — no pinned regressions.\n\n"); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(w, "Gate: **FAIL**\n\n"); err != nil {
			return err
		}
		for _, f := range rep.Failures {
			if _, err := fmt.Fprintf(w, "- %s\n", f); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, u := range rep.Ungated {
		if _, err := fmt.Fprintf(w, "- %s\n", u); err != nil {
			return err
		}
	}
	if len(rep.Ungated) > 0 {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "| benchmark | pinned | base ns/op | cur ns/op | Δ ns/op | base allocs | cur allocs |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---|---|---:|---:|---:|---:|---:|"); err != nil {
		return err
	}
	for _, r := range rep.Rows {
		pin := ""
		if r.Pinned {
			pin = "yes"
		}
		delta := fmt.Sprintf("%+.1f%%", 100*r.NsDelta)
		switch {
		case r.MissingBase:
			delta = "new"
		case r.MissingCur:
			delta = "gone"
		}
		if _, err := fmt.Fprintf(w, "| %s | %s | %.1f | %.1f | %s | %d | %d |\n",
			r.Name, pin, r.BaseNs, r.CurNs, delta, r.BaseAllocs, r.CurAllocs); err != nil {
			return err
		}
	}
	return nil
}
