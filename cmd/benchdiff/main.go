// Command benchdiff is the CI bench-regression gate: it compares a
// freshly measured mot-bench/v1 report against the committed baseline
// and exits non-zero when a pinned benchmark regressed (>15% ns/op by
// default, or any allocs/op growth). `make bench-gate` runs the suite
// into BENCH_current.json and invokes this; -md writes the delta table
// CI uploads as an artifact.
//
// Usage:
//
//	benchdiff -baseline BENCH_15.json -current BENCH_current.json -md benchdiff.md
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench/diff"
)

func main() {
	baseline := flag.String("baseline", "", "committed baseline report (required)")
	current := flag.String("current", "", "freshly measured report (required)")
	mdOut := flag.String("md", "", "write the markdown delta table here (optional)")
	maxNs := flag.Float64("max-ns-regress", 0.15, "tolerated fractional ns/op growth on pinned benchmarks")
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		flag.Usage()
		os.Exit(2)
	}

	base, err := diff.LoadReport(*baseline)
	if err != nil {
		fatal(err)
	}
	cur, err := diff.LoadReport(*current)
	if err != nil {
		fatal(err)
	}
	rep := diff.Diff(base, cur, diff.Options{MaxNsRegress: *maxNs})

	if *mdOut != "" {
		f, err := os.Create(*mdOut)
		if err != nil {
			fatal(err)
		}
		if err := diff.WriteMarkdown(f, rep); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if err := diff.WriteMarkdown(os.Stdout, rep); err != nil {
		fatal(err)
	}
	for _, u := range rep.Ungated {
		fmt.Fprintln(os.Stderr, "benchdiff:", u)
	}
	if !rep.OK() {
		fmt.Fprintf(os.Stderr, "benchdiff: gate FAILED (%d regression(s) vs %s)\n", len(rep.Failures), *baseline)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchdiff: gate passed (%d benchmarks, baseline %s)\n", len(rep.Rows), *baseline)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
