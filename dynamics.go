package mot

import (
	"errors"
	"fmt"

	"repro/internal/dynamics"
	"repro/internal/graph"
)

// Dynamic topology (§7): sensors fail and recover while tracking
// continues. Every FailNode and RecoverNode is handled immediately by the
// internal/dynamics engine — hier.Repair re-runs the deterministic greedy
// MIS only where liveness changed, landing on the exact hierarchy a
// from-scratch rebuild of the live set would produce, then precisely the
// trails the event broke are re-stamped. Tracking stays available
// throughout. Past ChurnThreshold × N cumulative failures the coarse
// fallback rebuilds overlay and directory from scratch over the live set,
// parking objects whose proxy is down until it returns.

// ErrChurnUnsupported is returned by FailNode and RecoverNode on trackers
// whose overlay cannot be repaired in place: the §6 sparse partition
// (Options.GeneralOverlay) and §5 load-balanced placement
// (Options.LoadBalance). Match it with errors.Is.
var ErrChurnUnsupported = errors.New("mot: churn requires the HS overlay without LoadBalance")

// Migrate rebuilds tracking on a changed network — §7's coarse mechanism:
// fine-grained churn inside clusters is absorbed by the de Bruijn
// relabeling with amortized O(1) updates (internal/debruijn), and "after
// the threshold, the hierarchy can be rebuilt from scratch". Migrate
// constructs a fresh tracker over newG and republishes every object of old
// at relocate(oldProxy) (identity when relocate is nil and the proxy still
// exists in newG).
func Migrate(old *Tracker, newG *Graph, opt Options, relocate func(NodeID) NodeID) (*Tracker, error) {
	fresh, err := NewTracker(newG, opt)
	if err != nil {
		return nil, err
	}
	for _, o := range old.Objects() {
		proxy, ok := old.Location(o)
		if !ok {
			continue
		}
		target := proxy
		if relocate != nil {
			target = relocate(proxy)
		}
		if int(target) < 0 || int(target) >= newG.N() {
			return nil, fmt.Errorf("mot: migrate: object %d relocated to invalid node %d", o, target)
		}
		if err := fresh.Publish(o, target); err != nil {
			return nil, fmt.Errorf("mot: migrate: %w", err)
		}
	}
	return fresh, nil
}

// FailNode models the crash of sensor n: every directory entry stored at
// its stations is lost, the overlay is repaired around the exclusion, and
// broken trails are re-stamped before FailNode returns, so tracking stays
// available while the node is down. Failing an already-failed node is a
// defined no-op; failing below two live sensors is an error.
func (t *Tracker) FailNode(n NodeID) error {
	return t.churnEvent((*dynamics.Engine).Fail, n)
}

// RecoverNode brings sensor n back: it is readmitted into the overlay
// immediately, objects parked on it across a rebuild are re-introduced,
// and whatever the readmission perturbed is re-stamped. Recovering a node
// that is not failed is a defined no-op.
func (t *Tracker) RecoverNode(n NodeID) error {
	return t.churnEvent((*dynamics.Engine).Recover, n)
}

// churnEvent applies one liveness flip through the engine.
func (t *Tracker) churnEvent(apply func(*dynamics.Engine, graph.NodeID) error, n NodeID) error {
	if t.eng == nil {
		return ErrChurnUnsupported
	}
	t.chaosMu.Lock()
	defer t.chaosMu.Unlock()
	if err := apply(t.eng, n); err != nil {
		return err
	}
	t.adoptEngineLocked()
	return nil
}

// adoptEngineLocked re-reads the engine's overlay and directory — a
// threshold rebuild replaces both. Caller holds chaosMu.
func (t *Tracker) adoptEngineLocked() {
	t.ov, t.dir = t.eng.Overlay(), t.eng.Directory()
}

// FailedNodes lists the currently failed sensors, sorted.
func (t *Tracker) FailedNodes() []NodeID {
	if t.eng == nil {
		return nil
	}
	t.chaosMu.Lock()
	defer t.chaosMu.Unlock()
	return t.eng.FailedNodes()
}

// ParkedObjects lists the objects currently stranded on a failed proxy
// across a coarse rebuild, sorted; they re-enter the directory when their
// node recovers.
func (t *Tracker) ParkedObjects() []ObjectID {
	if t.eng == nil {
		return nil
	}
	t.chaosMu.Lock()
	defer t.chaosMu.Unlock()
	return t.eng.ParkedObjects()
}

// Unpublish removes object o from tracking (the "object retired / sensor
// left" half of §7 dynamics); its trail is erased root to proxy.
// Re-introducing the object later is a fresh Publish.
func (t *Tracker) Unpublish(o ObjectID) error {
	if t.eng == nil {
		return t.dir.Unpublish(o)
	}
	t.chaosMu.Lock()
	defer t.chaosMu.Unlock()
	return t.eng.Unpublish(o)
}
