package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
)

// checkServed validates every response of a fault-free serving run
// against the client's own history; the first violation is returned.
//
//   - A 5xx, or any status but 200 and 429, is a violation: nothing in a
//     fault-free run may fail on the server or be refused as malformed.
//   - A query's answer must be its object's last acknowledged position
//     or the target of one of its moves in flight during the query.
//
// initial holds each object's acknowledged publish position; recs are
// every request sent after the preload, queries of the quiescent sweep
// included.
func checkServed(initial []int32, recs []rec) error {
	type move struct {
		to         int32
		sent, done int64 // done is +Inf-like when the outcome is unknown
		applied    bool  // acknowledged with 200
	}
	const never = math.MaxInt64
	moves := make([][]move, len(initial))
	for i := range recs {
		r := &recs[i]
		if r.status >= 500 || (r.status != 0 && r.status != http.StatusOK && r.status != http.StatusTooManyRequests) {
			return fmt.Errorf("%s of object %d answered HTTP %d in a fault-free run", r.kind, r.obj, r.status)
		}
		if r.kind != kMove || r.status == http.StatusTooManyRequests {
			continue // refused moves were never applied
		}
		m := move{to: r.node, sent: r.pickup, done: r.done, applied: r.ok()}
		if !m.applied {
			m.done = never // a transport error may or may not have applied it
		}
		moves[r.obj] = append(moves[r.obj], m)
	}
	for _, ms := range moves {
		sort.Slice(ms, func(a, b int) bool { return ms[a].sent < ms[b].sent })
	}
	for i := range recs {
		q := &recs[i]
		if q.kind != kQuery || !q.ok() {
			continue
		}
		ms := moves[q.obj]
		// A move is superseded at the query's send time when another move
		// was sent after it was acknowledged and was itself acknowledged
		// before the query was sent.
		latestSent := int64(-1) // send time of the newest move acked before the query
		for _, m := range ms {
			if m.applied && m.done <= q.pickup {
				latestSent = max(latestSent, m.sent)
			}
		}
		valid := latestSent < 0 && q.answer == initial[q.obj]
		for _, m := range ms {
			if valid || m.sent > q.done {
				break
			}
			superseded := m.applied && latestSent > m.done
			valid = !superseded && m.to == q.answer
		}
		if !valid {
			return fmt.Errorf("stale answer: query of object %d at %.3fs returned sensor %d, not its last acknowledged position or an in-flight move target",
				q.obj, float64(q.pickup)/1e9, q.answer)
		}
	}
	return nil
}
