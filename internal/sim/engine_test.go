package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// Events fire in (at, seq) order whichever lane holds them: a seeded mix
// of At calls before Run (mostly rising, so many join the scheduled lane)
// and At/After calls from inside firing events, with equal times and past
// times the engine clamps to now, must fire exactly in the order of a sort
// of the logged (at, seq) pairs.
func TestEngineFiresInAtSeqOrder(t *testing.T) {
	type stamp struct {
		at  float64
		seq int
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(0)
		var logged, fired []stamp
		var schedule func(at float64)
		schedule = func(at float64) {
			s := stamp{at: max(at, e.Now()), seq: len(logged) + 1}
			logged = append(logged, s)
			fire := func() {
				fired = append(fired, stamp{at: e.Now(), seq: s.seq})
				for k := rng.Intn(3); k > 0 && len(logged) < 3000; k-- {
					// Whole-number offsets in [-3, 5] tie often and reach
					// into the past.
					schedule(e.Now() + float64(rng.Intn(9)-3))
				}
			}
			if rng.Intn(2) == 0 {
				e.At(at, fire)
			} else {
				e.After(at-e.Now(), fire)
			}
		}
		for i := 0; i < 300; i++ {
			schedule(float64(i/4 + rng.Intn(5) - 2))
		}
		if len(e.lane) == 0 || len(e.heap) == 0 {
			t.Fatalf("seed %d: lane %d, heap %d events; the mix should fill both", seed, len(e.lane), len(e.heap))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(logged)
		slices.SortFunc(want, func(a, b stamp) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq)) })
		if !slices.Equal(fired, want) {
			t.Fatalf("seed %d: %d events fired out of (at, seq) order", seed, len(fired))
		}
		if e.Pending() != 0 || e.Steps() != int64(len(logged)) {
			t.Fatalf("seed %d: %d pending, %d steps for %d events", seed, e.Pending(), e.Steps(), len(logged))
		}
	}
}

// countEvent is a pointer event, the shape of a driver's flight.
type countEvent struct{ n int }

func (c *countEvent) Fire() { c.n++ }

// On a warmed engine, scheduling and firing a pointer event allocates
// nothing in either lane, and neither does a fault-free Deliver.
func TestEnginePointerEventsDoNotAllocate(t *testing.T) {
	e := NewEngine(0)
	ev, msg := &countEvent{}, newTestMsg(e)
	round := func() {
		e.schedule(e.Now()+2, ev) // the scheduled lane
		e.schedule(e.Now()+1, ev) // earlier than the lane's last: the heap
		e.schedule(e.Now()+3, ev)
		e.Deliver(Delivery{Dest: 1, Dist: 1, Msg: msg})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round() // grows both lanes
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("%v allocations per round, want 0", allocs)
	}
	if ev.n != 3*102 || msg.attempts != 102 {
		t.Fatalf("fired %d events and %d messages, want %d and %d", ev.n, msg.attempts, 3*102, 102)
	}
}
