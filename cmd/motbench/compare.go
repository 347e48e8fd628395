package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// runCompare compares two sets of run records (-out files) per workload
// and metric: it prints each side's median, quartiles and spread (the
// interquartile distance over the median) and the change of the
// medians, and exits 1 when a metric's medians differ by more than its
// BENCHMARK.json bound in either direction, or a metric is missing from
// one side. Per-layer metrics have no bound; they are printed for
// reference only.
func runCompare(paths []string, bf *benchFile, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "motbench: -compare takes two record files: motbench -compare a.jsonl b.jsonl")
		return 2
	}
	var sets [2][]result
	for i, p := range paths {
		rs, err := readRecords(p)
		if err != nil {
			fmt.Fprintln(stderr, "motbench:", err)
			return 1
		}
		sets[i] = rs
	}
	values := func(rs []result, workload, metric string, traced bool) []float64 {
		var xs []float64
		for _, r := range rs {
			if r.Workload != workload || r.Traced != traced || !r.Correct {
				continue
			}
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v)
			}
		}
		return xs
	}
	seen := map[string]bool{}
	for _, rs := range sets {
		for _, r := range rs {
			seen[r.Workload] = true
		}
	}
	names := sortedKeys(seen)
	sort.Strings(names)

	disagree := 0
	fmt.Fprintf(stdout, "%-12s %-28s %4s  %-34s %-34s %8s %6s\n",
		"workload", "metric", "n", "A: median [q1 q3] spread", "B: median [q1 q3] spread", "change", "bound")
	for _, w := range names {
		for i, specs := range [][]metricSpec{bf.EndToEnd, bf.PerLayer} {
			traced := i == 1
			for _, m := range specs {
				a, b := values(sets[0], w, m.Name, traced), values(sets[1], w, m.Name, traced)
				if len(a) == 0 && len(b) == 0 {
					continue
				}
				if len(a) == 0 || len(b) == 0 {
					fmt.Fprintf(stdout, "%-12s %-28s missing from one side (%d vs %d runs)  DISAGREE\n", w, m.Name, len(a), len(b))
					disagree++
					continue
				}
				ma, mb := median(a), median(b)
				change := (mb - ma) / math.Abs(ma)
				verdict := ""
				if !traced && math.Abs(change) > m.Bound {
					verdict = "  DISAGREE"
					disagree++
				}
				bound := "-"
				if !traced {
					bound = fmt.Sprintf("%.3f", m.Bound)
				}
				fmt.Fprintf(stdout, "%-12s %-28s %4d  %-34s %-34s %+8.4f %6s%s\n",
					w, m.Name, min(len(a), len(b)), summary(a), summary(b), change, bound, verdict)
			}
		}
	}
	if disagree > 0 {
		fmt.Fprintf(stdout, "%d metric(s) disagree\n", disagree)
		return 1
	}
	fmt.Fprintln(stdout, "the two sets agree within every bound")
	return 0
}

// summary renders a set's median, quartiles and spread: the
// interquartile distance as a share of the median, the repeatability
// measure the bounds are checked against.
func summary(xs []float64) string {
	m := median(xs)
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g] %.3f", m, q1, q3, (q3-q1)/math.Abs(m))
}
