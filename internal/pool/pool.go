// Package pool provides the worker-pool primitive the experiment
// drivers share: fan a slice out to workers, collect results in input
// order.
package pool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map applies f to every item on a pool of workers goroutines and
// returns the results in input order, so downstream aggregation stays
// deterministic. Work is distributed via an atomic counter (cheaper
// than a channel for uniform small tasks). workers <= 0 uses
// GOMAXPROCS. f must be safe for concurrent invocation.
//
// A panic in f is isolated to its item: the worker recovers, the
// remaining items still run, and after all work completes Map
// re-panics with the first captured panic value — the caller sees the
// failure on its own goroutine instead of a process-killing crash on
// an anonymous worker.
func Map[T, R any](items []T, workers int, f func(int, T) R) []R {
	out := make([]R, len(items))
	if len(items) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() {
								panicked = fmt.Errorf("pool: item %d panicked: %v", i, r)
							})
						}
					}()
					out[i] = f(i, items[i])
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}
