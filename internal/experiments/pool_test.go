package experiments

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestOrderedPool pins the pool contract for workers ∈ {1, 3, n+2}:
// results come back in index order, the lowest-index failure wins on
// every run, and no task starts once a failure has been observed.
func TestOrderedPool(t *testing.T) {
	const n = 8
	for _, workers := range []int{1, 3, n + 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := orderedPool(workers, n, func(i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
				}
			}

			for rep := 0; rep < 20; rep++ {
				_, err := orderedPool(workers, n, func(i int) (int, error) {
					if i == 2 || i == 5 {
						return 0, fmt.Errorf("task %d", i)
					}
					return i, nil
				})
				if err == nil || err.Error() != "task 2" {
					t.Fatalf("rep %d: error %v, want task 2's", rep, err)
				}
			}

			// Fill every worker before task 2 fails: tasks 0 and 1 return at
			// once, tasks above 2 block until the failure has been recorded,
			// and task 2 fails only when all workers hold a task. So exactly
			// the first min(workers+2, n) tasks may ever start.
			busy := workers + 2
			if busy > n {
				busy = n
			}
			var mu sync.Mutex
			var started []int
			allBusy := make(chan struct{})
			release := make(chan struct{})
			_, err = orderedPool(workers, n, func(i int) (int, error) {
				mu.Lock()
				started = append(started, i)
				if len(started) == busy {
					close(allBusy)
				}
				mu.Unlock()
				switch {
				case i == 2:
					<-allBusy
					// The blocked workers resume only after the pool has had
					// ample time to record this failure.
					time.AfterFunc(20*time.Millisecond, func() { close(release) })
					return 0, fmt.Errorf("task %d", i)
				case i > 2:
					<-release
				}
				return i, nil
			})
			if err == nil || err.Error() != "task 2" {
				t.Fatalf("error %v, want task 2's", err)
			}
			sort.Ints(started)
			if len(started) != busy || started[len(started)-1] != busy-1 {
				t.Fatalf("started %v, want exactly tasks 0..%d", started, busy-1)
			}
		})
	}
}
