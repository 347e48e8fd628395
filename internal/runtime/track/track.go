// Package track is the one place in library code allowed to launch
// goroutines. Every concurrent helper in the module (the debug and
// serving loops, the metric precomputation pool, the parallel MIS rounds,
// the sweep-cell worker pool) starts its goroutines through a
// Group, so the -race smoke tier can always drain them: a Group is never
// abandoned — its owner calls Wait (or Stop for long-lived loops) before
// returning.
//
// The motlint barego rule enforces the discipline: a bare go statement
// anywhere else in library code is a lint error. Keeping the launch site
// in one package also gives the race tier a single choke point to
// instrument.
package track

import "sync"

// Group tracks a set of goroutines. The zero value is ready to use.
// Go launches, Wait drains. A Group must not be copied after first use.
type Group struct {
	wg sync.WaitGroup
}

// Go runs fn on a new tracked goroutine.
func (g *Group) Go(fn func()) {
	g.wg.Add(1)
	//motlint:ignore barego the module's single sanctioned launch site
	go func() {
		defer g.wg.Done()
		fn()
	}()
}

// Wait blocks until every goroutine launched with Go has returned.
func (g *Group) Wait() {
	g.wg.Wait()
}
