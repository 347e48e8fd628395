package mot

import (
	"repro/internal/chaos"
)

// ChaosConfig configures deterministic fault injection (see
// internal/chaos): every fault decision is a pure hash of the seed and the
// message's logical identity, so fault schedules replay byte for byte.
type ChaosConfig struct {
	// Seed selects the fault stream.
	Seed int64
	// DropRate is the per-attempt probability a message is lost; dropped
	// attempts are retried with exponential backoff up to MaxAttempts,
	// then the operation fails with a typed *DeliveryError.
	DropRate float64
	// DelayRate is the probability a delivered message is slowed by
	// DelayFactor times its travel distance.
	DelayRate   float64
	DelayFactor float64
	// MaxAttempts bounds retransmissions per message (0 → 8).
	MaxAttempts int
	// ChurnThreshold is the fraction of sensors whose cumulative failures
	// trigger the coarse §7 fallback — a full rebuild over the live set —
	// instead of local repair. 0 defaults to 0.25.
	ChurnThreshold float64
	// RebuildEachEvent is the validation mode of churn repair: every
	// FailNode/RecoverNode rebuilds the overlay from scratch over the live
	// set (hier.BuildExcluding) in place of hier.Repair, with the
	// directory-repair discipline unchanged. Repair lands on a
	// Fingerprint-identical overlay, so a run under this mode must be
	// byte-identical to the same run without it — the golden churn tier
	// replays both and diffs the cost traces.
	RebuildEachEvent bool
}

// DeliveryError is the typed failure surfaced when a message exhausts its
// retransmission budget under chaos; match it with errors.As.
type DeliveryError = chaos.DeliveryError

// FaultTrace is the deterministic record of injected faults.
type FaultTrace = chaos.Trace
