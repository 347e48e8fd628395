package main

import (
	"math"
	"strings"
	"testing"
)

var chaosSpecCases = []struct {
	spec    string
	seed    int64
	rate    float64
	wantErr string // substring; "" = success
}{
	{spec: "1,0.15", seed: 1, rate: 0.15},
	{spec: "-7,0", seed: -7, rate: 0},
	{spec: " 3 , 1 ", seed: 3, rate: 1},
	{spec: "0,0.5", seed: 0, rate: 0.5},

	{spec: "", wantErr: "wants seed,rate"},
	{spec: "1", wantErr: "wants seed,rate"},
	{spec: "1,0.5,2", wantErr: "wants seed,rate"},
	{spec: "1,", wantErr: "empty field"},
	{spec: ",0.5", wantErr: "empty field"},
	{spec: "x,0.5", wantErr: "not an integer"},
	{spec: "1.5,0.5", wantErr: "not an integer"},
	{spec: "1,x", wantErr: "probability"},
	{spec: "1,-0.1", wantErr: "probability"},
	{spec: "1,1.01", wantErr: "probability"},
	// NaN compares false against every bound: the old range check
	// (rate < 0 || rate > 1) let it straight through into the tier.
	{spec: "1,NaN", wantErr: "probability"},
	{spec: "1,+Inf", wantErr: "probability"},
	{spec: "1,-Inf", wantErr: "probability"},
}

func TestParseChaosSpec(t *testing.T) {
	for _, tc := range chaosSpecCases {
		seed, rate, err := parseChaosSpec(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseChaosSpec(%q) err = %v, want substring %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseChaosSpec(%q): %v", tc.spec, err)
			continue
		}
		if seed != tc.seed || rate != tc.rate {
			t.Errorf("parseChaosSpec(%q) = %d, %g, want %d, %g", tc.spec, seed, rate, tc.seed, tc.rate)
		}
	}
}

var churnSpecCases = []struct {
	spec    string
	rate    float64
	seed    int64
	wantErr string
}{
	{spec: "0.05,7", rate: 0.05, seed: 7},
	{spec: "0.10,1", rate: 0.10, seed: 1},
	{spec: "0.01,-2", rate: 0.01, seed: -2},
	{spec: " 0.02 , 9 ", rate: 0.02, seed: 9},

	{spec: "", wantErr: "wants rate,seed"},
	{spec: "0.05", wantErr: "wants rate,seed"},
	{spec: "0.05,7,9", wantErr: "wants rate,seed"},
	{spec: "0.05,", wantErr: "empty field"},
	{spec: ",7", wantErr: "empty field"},
	{spec: "x,7", wantErr: "churn regime"},
	{spec: "0,7", wantErr: "churn regime"},
	{spec: "-0.05,7", wantErr: "churn regime"},
	// Above the regime used to be silently clamped to 0.10 by the
	// experiment config — a different run than the one asked for.
	{spec: "0.11,7", wantErr: "churn regime"},
	{spec: "0.5,7", wantErr: "churn regime"},
	{spec: "1,7", wantErr: "churn regime"},
	{spec: "NaN,7", wantErr: "churn regime"},
	{spec: "Inf,7", wantErr: "churn regime"},
	{spec: "0.05,x", wantErr: "not an integer"},
	{spec: "0.05,7.5", wantErr: "not an integer"},
}

func TestParseChurnSpec(t *testing.T) {
	for _, tc := range churnSpecCases {
		rate, seed, err := parseChurnSpec(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseChurnSpec(%q) err = %v, want substring %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseChurnSpec(%q): %v", tc.spec, err)
			continue
		}
		if rate != tc.rate || seed != tc.seed {
			t.Errorf("parseChurnSpec(%q) = %g, %d, want %g, %d", tc.spec, rate, seed, tc.rate, tc.seed)
		}
	}
}

// FuzzParseChaosSpec: no input panics the parser, and every accepted
// spec carries a finite drop probability in [0,1].
func FuzzParseChaosSpec(f *testing.F) {
	for _, tc := range chaosSpecCases {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		_, rate, err := parseChaosSpec(spec)
		if err == nil && (math.IsNaN(rate) || rate < 0 || rate > 1) {
			t.Fatalf("parseChaosSpec(%q) accepted rate %v outside [0,1]", spec, rate)
		}
	})
}

// FuzzParseChurnSpec: no input panics the parser, and every accepted
// spec carries a finite churn rate in (0, maxChurnRate].
func FuzzParseChurnSpec(f *testing.F) {
	for _, tc := range churnSpecCases {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rate, _, err := parseChurnSpec(spec)
		if err == nil && (math.IsNaN(rate) || rate <= 0 || rate > maxChurnRate) {
			t.Fatalf("parseChurnSpec(%q) accepted rate %v outside (0,%v]", spec, rate, maxChurnRate)
		}
	})
}

func TestCheckSizeFlags(t *testing.T) {
	for _, tc := range []struct {
		scale          float64
		seeds, workers int
		wantErr        string // substring; "" = accepted
	}{
		{scale: 0.1, seeds: 1, workers: 0},
		{scale: 1, seeds: 3, workers: 8},
		{scale: 1e-9, seeds: 1, workers: 1},

		{scale: 0, seeds: 1, wantErr: "-scale"},
		{scale: -2, seeds: 1, wantErr: "-scale"},
		{scale: 5, seeds: 1, wantErr: "-scale"},
		{scale: 1.0000001, seeds: 1, wantErr: "-scale"},
		{scale: math.NaN(), seeds: 1, wantErr: "-scale"},
		{scale: math.Inf(1), seeds: 1, wantErr: "-scale"},
		{scale: 0.1, seeds: 0, wantErr: "-seeds"},
		{scale: 0.1, seeds: -3, wantErr: "-seeds"},
		{scale: 0.1, seeds: 1, workers: -2, wantErr: "-workers"},
	} {
		err := checkSizeFlags(tc.scale, tc.seeds, tc.workers)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("checkSizeFlags(%v, %d, %d): %v", tc.scale, tc.seeds, tc.workers, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("checkSizeFlags(%v, %d, %d) err = %v, want substring %q", tc.scale, tc.seeds, tc.workers, err, tc.wantErr)
		}
	}
}
