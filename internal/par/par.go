// Package par runs the data-parallel loops of training and evaluation on
// one process-wide budget of goroutines. The calling goroutine always
// works; helpers come from a shared budget of GOMAXPROCS-1 and are taken
// only when free, so a call never waits for one, and a loop nested inside
// another runs on goroutines that already exist instead of adding more.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// helpers counts the helper goroutines running across all For calls.
var helpers atomic.Int64

// For calls a body for every index in [0, n) and returns once all calls
// have returned. The indexes are split into chunks of at most grain (which
// must be positive). Free goroutines take the chunks in index order, so
// uneven work per index cannot leave a goroutine idle while another has a
// backlog.
//
// newWorker runs once on each participating goroutine and returns that
// goroutine's body; per-worker scratch belongs in its closure. Bodies run
// concurrently, so results should land at fixed indexes or be merged in a
// way that does not depend on which goroutine computed them.
func For(n, grain int, newWorker func() func(i int)) {
	if n <= 0 {
		return
	}
	chunks := (n + grain - 1) / grain
	var next atomic.Int64
	work := func() {
		body := newWorker()
		for {
			c := int(next.Add(1) - 1)
			if c >= chunks {
				return
			}
			hi := min((c+1)*grain, n)
			for i := c * grain; i < hi; i++ {
				body(i)
			}
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < chunks && acquire(); k++ {
		wg.Add(1)
		go func() {
			// Return the helper before Done, so the budget is whole
			// again by the time For returns.
			defer wg.Done()
			defer helpers.Add(-1)
			work()
		}()
	}
	work()
	wg.Wait()
}

// acquire takes one helper from the budget if one is free.
func acquire() bool {
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		h := helpers.Load()
		if h >= limit {
			return false
		}
		if helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}
