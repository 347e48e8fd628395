package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// Race-detector stress for the tracker: many client goroutines publish,
// move, and query distinct objects concurrently, each operation walking
// station to station on its client's goroutine, and readers poll Location
// and Cost the whole time. Run under `go test -race` (the `make check` smoke
// tier does); it asserts the final tracked locations match the ground
// truth each client computed locally.
func TestRaceTrackerMovesAndQueries(t *testing.T) {
	tr, g := newTracker(t, 6, 6)
	const (
		objs  = 16
		moves = 25
	)
	truth := make([]graph.NodeID, objs)
	errCh := make(chan error, objs+1)
	var clients, poller sync.WaitGroup

	// Background reader: Location and Cost must be safe to call while
	// moves are in flight.
	stopPoll := make(chan struct{})
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			for o := 0; o < objs; o++ {
				tr.Location(core.ObjectID(o))
			}
			if tr.Cost() < 0 {
				errCh <- fmt.Errorf("negative total cost")
				return
			}
		}
	}()

	for o := 0; o < objs; o++ {
		clients.Add(1)
		go func(o int) {
			defer clients.Done()
			rng := rand.New(rand.NewSource(int64(1000 + o)))
			cur := graph.NodeID(rng.Intn(g.N()))
			if err := tr.Publish(core.ObjectID(o), cur); err != nil {
				errCh <- err
				return
			}
			for i := 0; i < moves; i++ {
				nbrs := g.NeighborIDs(cur)
				cur = nbrs[rng.Intn(len(nbrs))]
				if err := tr.Move(core.ObjectID(o), cur); err != nil {
					errCh <- err
					return
				}
				if i%7 == 0 {
					from := graph.NodeID(rng.Intn(g.N()))
					got, cost, err := tr.Query(from, core.ObjectID(o))
					if err != nil {
						errCh <- err
						return
					}
					if got != cur {
						errCh <- fmt.Errorf("object %d: query said %d, at %d", o, got, cur)
						return
					}
					if cost < 0 {
						errCh <- fmt.Errorf("object %d: negative query cost", o)
						return
					}
				}
			}
			truth[o] = cur
		}(o)
	}
	// Wait for the clients, then release the poller (it would otherwise
	// spin forever).
	clients.Wait()
	close(stopPoll)
	poller.Wait()

	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Ground truth: the tracker's final answer for every object matches
	// the walk its client performed.
	for o := 0; o < objs; o++ {
		got, _, err := tr.Query(0, core.ObjectID(o))
		if err != nil {
			t.Fatal(err)
		}
		if got != truth[o] {
			t.Fatalf("object %d finished at %d, tracker says %d", o, truth[o], got)
		}
		if loc, ok := tr.Location(core.ObjectID(o)); !ok || loc != truth[o] {
			t.Fatalf("object %d Location=(%d,%v), want %d", o, loc, ok, truth[o])
		}
	}
	if tr.Cost() <= 0 {
		t.Fatal("no message cost accounted")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
