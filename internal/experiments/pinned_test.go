package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"
)

// pinnedLines renders every float field of a cost-ratio sweep, one
// (mode, field, algorithm, size) value per line with its bits.
func pinnedLines(b *strings.Builder, mode string, res *CostRatioResult) {
	fields := []struct {
		name string
		v    [][]float64
	}{
		{"Maintenance", res.Maintenance},
		{"Query", res.Query},
		{"MaintenanceMean", res.MaintenanceMean},
		{"QueryMean", res.QueryMean},
		{"Special", res.Special},
		{"LBRoute", res.LBRoute},
		{"Recovery", res.Recovery},
		{"RecoveryOps", res.RecoveryOps},
	}
	for _, f := range fields {
		for a, alg := range res.Algorithms {
			for si, n := range res.Sizes {
				x := f.v[a][si]
				fmt.Fprintf(b, "%s %s %s n=%d %v %#x\n", mode, f.name, alg, n, x, math.Float64bits(x))
			}
		}
	}
}

// TestGoldenCostRatioPinned pins the baselines' numbers, and MOT's, in
// both execution modes to the bit: every float field of RunCostRatio for
// every algorithm and size, plus RunLoad's per-node vectors against STUN
// and Z-DAT. The digest was recorded before the tree baselines' rules
// were folded into treedir's handler. Workers=1 and Workers=4 must agree.
// A failure prints every pinned value.
func TestGoldenCostRatioPinned(t *testing.T) {
	const golden = "9035235020d9e41d"
	for _, workers := range []int{1, 4} {
		var b strings.Builder
		for _, concurrent := range []bool{false, true} {
			res, err := RunCostRatio(CostRatioConfig{
				Sizes:          []int{16, 36, 64},
				Objects:        8,
				MovesPerObject: 40,
				Queries:        60,
				Seeds:          2,
				Concurrent:     concurrent,
				LoadBalance:    true,
				Workers:        workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			mode := "one-by-one"
			if concurrent {
				mode = "concurrent"
			}
			pinnedLines(&b, mode, res)
		}
		for _, base := range []string{AlgSTUN, AlgZDAT} {
			res, err := RunLoad(LoadConfig{Nodes: 64, Objects: 8, MovesPerObject: 10, Baseline: base, Seed: 3, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "load %s MOTLoad %v\nload %s BaselineLoad %v\n", base, res.MOTLoad, base, res.BaselineLoad)
		}
		sum := sha256.Sum256([]byte(b.String()))
		if got := fmt.Sprintf("%x", sum[:8]); got != golden {
			t.Errorf("workers=%d: digest %s, golden %s; pinned values:\n%s", workers, got, golden, b.String())
		}
	}
}
