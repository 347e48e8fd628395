// Flag-spec parsing for the composite -chaos and -churn arguments, and
// range checks for the plain size flags, split from main so the
// validation is table-testable. The historical parser looked strict but
// had real holes: NaN satisfies neither `rate < 0` nor `rate > 1` and
// sailed through both range checks, empty fields from a trailing comma
// surfaced as confusing strconv errors, and churn rates above the
// paper's 10% regime were silently clamped down by the experiment tier
// instead of being rejected. All of those are usage errors now: stderr
// message, exit 2.
package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// maxChurnRate is the top of the paper's 1–10% churn regime. Rates
// above it used to be accepted here and clamped to 0.10 deep inside the
// experiment config, so `-churn 0.5,7` quietly ran a different
// experiment than asked; it is a usage error now. (The config-level
// clamp stays, as defense for non-CLI callers.)
const maxChurnRate = 0.10

// splitSpec splits a two-field comma spec, rejecting wrong arity and
// empty fields up front.
func splitSpec(flag, spec, shape string) (first, second string, err error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return "", "", fmt.Errorf("-%s wants %s, got %q", flag, shape, spec)
	}
	first, second = strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
	if first == "" || second == "" {
		return "", "", fmt.Errorf("-%s wants %s, got %q (empty field)", flag, shape, spec)
	}
	return first, second, nil
}

// parseRate parses a rate field and rejects every non-finite and
// out-of-range value. NaN must be tested explicitly: every comparison
// against it is false, so a plain lo/hi check lets it through.
func parseRate(flag, raw string, lo, hi float64, loExclusive bool, rangeDesc string) (float64, error) {
	rate, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(rate) || math.IsInf(rate, 0) ||
		rate < lo || (loExclusive && rate == lo) || rate > hi {
		return 0, fmt.Errorf("-%s rate %q: must be %s", flag, raw, rangeDesc)
	}
	return rate, nil
}

// parseChaosSpec parses the -chaos argument "seed,rate": seed is any
// integer, rate a drop probability in [0,1] (0 selects the tier's
// default fault mix).
func parseChaosSpec(spec string) (seed int64, rate float64, err error) {
	seedStr, rateStr, err := splitSpec("chaos", spec, "seed,rate (e.g. -chaos 1,0.15)")
	if err != nil {
		return 0, 0, err
	}
	seed, err = strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("-chaos seed %q: not an integer", seedStr)
	}
	rate, err = parseRate("chaos", rateStr, 0, 1, false, "a probability in [0,1]")
	if err != nil {
		return 0, 0, err
	}
	return seed, rate, nil
}

// parseChurnSpec parses the -churn argument "rate,seed": rate is the
// per-epoch fraction of failed sensors in (0, 0.10] — the paper's churn
// regime — and seed is any integer.
func parseChurnSpec(spec string) (rate float64, seed int64, err error) {
	rateStr, seedStr, err := splitSpec("churn", spec, "rate,seed (e.g. -churn 0.05,7)")
	if err != nil {
		return 0, 0, err
	}
	rate, err = parseRate("churn", rateStr, 0, maxChurnRate, true,
		fmt.Sprintf("a fraction in (0,%.2f] (the paper's 1-10%% churn regime)", maxChurnRate))
	if err != nil {
		return 0, 0, err
	}
	seed, err = strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("-churn seed %q: not an integer", seedStr)
	}
	return rate, seed, nil
}

// checkSizeFlags rejects out-of-range -scale, -seeds and -workers
// values, which the harness used to replace silently: a -scale outside
// (0,1] ran the paper's full setting, a -seeds below 1 printed a
// one-seed table, and a negative -workers ran one worker per CPU. NaN
// fails the scale check, because the test is written as the range
// holding rather than as either bound failing.
func checkSizeFlags(scale float64, seeds, workers int) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("-scale %v: must be in (0,1]", scale)
	}
	if seeds < 1 {
		return fmt.Errorf("-seeds %d: must be at least 1", seeds)
	}
	if workers < 0 {
		return fmt.Errorf("-workers %d: must be 0 (one per CPU) or more", workers)
	}
	return nil
}
