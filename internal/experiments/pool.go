package experiments

import (
	"sync/atomic"

	"repro/internal/runtime/track"
)

// orderedPool runs tasks 0..n-1 on min(workers, n) goroutines and returns
// their results in index order, so the output never depends on the
// worker count or the schedule — the Workers=1≡N contract every harness
// in this package relies on. Tasks are handed out in index order; once a
// task has failed no further task starts, and the error returned is the
// lowest-index failure. That error is deterministic: every task handed
// out runs, and every index below a handed-out one was handed out
// earlier, so all tasks below any failure ran too.
func orderedPool[T any](workers, n int, run func(i int) (T, error)) ([]T, error) {
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var pool track.Group
	for w := 0; w < workers; w++ {
		pool.Go(func() {
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				v, err := run(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = v
			}
		})
	}
	pool.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
