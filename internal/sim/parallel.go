package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelFor runs fn(i) for i in [0, n). It is the single worker-pool
// helper of the simulation core — the day loop dispatches every parallel
// phase through it — so there is exactly one clamping rule for
// Config.Workers: workers <= 0 means GOMAXPROCS. (Validate rejects
// negative counts at the config boundary; a negative value reaching this
// level through a direct RunWorld/StreamWorld call behaves like the zero
// value rather than silently serializing.) The worker count is additionally
// clamped to n, and a single worker runs inline: no goroutines, no
// scheduling allocations — the serial path replay tests compare against
// parallel runs byte for byte.
//
// Work is claimed from a shared atomic counter, one index at a time,
// rather than handed out in contiguous chunks: per-index work is wildly
// skewed under surge scenarios (a flash-crowd client-day runs orders of
// magnitude more beacon executions than a quiet one), and chunked
// assignment strands that skew on one worker while the rest idle at the
// barrier. The claim is one uncontended atomic add — cheaper than the
// channel send per index it replaces — and the schedule has no effect on
// results: every output index is written by whichever worker claims it,
// and all randomness is per-entity substreams.
func parallelFor(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
