package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func withProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	withProcs(t, 4)
	const grain = 16
	for _, n := range []int{0, 1, grain - 1, grain, grain + 1, 10000} {
		visits := make([]atomic.Int32, n)
		For(n, grain, func() func(int) {
			return func(i int) { visits[i].Add(1) }
		})
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

// TestForNestedInSaturatedFor runs an inner loop inside every body of an
// outer loop that has taken the whole budget: the inner loops find no
// free helper and must run on their own goroutine rather than wait.
func TestForNestedInSaturatedFor(t *testing.T) {
	withProcs(t, 4)
	sums := make([]int64, 16)
	For(len(sums), 1, func() func(int) {
		return func(i int) {
			var sum atomic.Int64
			For(1000, 7, func() func(int) {
				return func(j int) { sum.Add(int64(j)) }
			})
			sums[i] = sum.Load()
		}
	})
	for i, s := range sums {
		if s != 999*1000/2 {
			t.Fatalf("outer index %d: inner sum %d, want %d", i, s, 999*1000/2)
		}
	}
	if h := helpers.Load(); h != 0 {
		t.Fatalf("%d helpers still held after For returned", h)
	}
}

// TestForHelpersWithinBudget runs several loops at once, each with a
// nested loop in its bodies, and records inside the bodies how many
// helpers are live and how many bodies run at once. Helpers never exceed
// GOMAXPROCS-1 in total, so the bodies running at once never exceed the
// callers plus that budget.
func TestForHelpersWithinBudget(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		withProcs(t, procs)
		const callers = 3
		var active, maxActive, maxHelpers atomic.Int64
		raise := func(hw *atomic.Int64, v int64) {
			for {
				cur := hw.Load()
				if v <= cur || hw.CompareAndSwap(cur, v) {
					return
				}
			}
		}
		leaf := func() func(int) {
			return func(int) {
				raise(&maxActive, active.Add(1))
				raise(&maxHelpers, helpers.Load())
				time.Sleep(50 * time.Microsecond)
				active.Add(-1)
			}
		}
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				For(24, 1, func() func(int) {
					return func(int) { For(8, 1, leaf) }
				})
			}()
		}
		wg.Wait()
		if got, limit := maxHelpers.Load(), int64(procs-1); got > limit {
			t.Errorf("GOMAXPROCS=%d: %d helpers live at once, budget %d", procs, got, limit)
		}
		if got, limit := maxActive.Load(), int64(callers+procs-1); got > limit {
			t.Errorf("GOMAXPROCS=%d: %d bodies ran at once, limit %d", procs, got, limit)
		}
		if procs > 1 && maxHelpers.Load() == 0 {
			t.Errorf("GOMAXPROCS=%d: no helper ever ran", procs)
		}
		if h := helpers.Load(); h != 0 {
			t.Errorf("GOMAXPROCS=%d: %d helpers still held after every For returned", procs, h)
		}
	}
}
