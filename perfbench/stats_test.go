package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var s Samples
	for i := 100; i >= 1; i-- {
		s.Add(float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if s.N() != 100 {
		t.Errorf("N = %d, want 100", s.N())
	}
}

func TestPercentileRanksFailuresLast(t *testing.T) {
	var s Samples
	for i := 1; i <= 98; i++ {
		s.Add(float64(i))
	}
	s.Fail()
	s.Fail()
	if got := s.Percentile(98); got != 98 {
		t.Errorf("p98 = %g, want 98", got)
	}
	if got := s.Percentile(99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %g, want +Inf: a failure misses every latency limit", got)
	}
	var empty Samples
	if got := empty.Percentile(50); got != 0 {
		t.Errorf("empty p50 = %g, want 0", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 99.9, true}, // 100 samples beyond p99.9
		{10000, 99.9, true},  // exactly 10 beyond
		{9999, 99, true},     // 9 beyond p99.9, 99 beyond p99
		{1000, 99, true},     // exactly 10 beyond p99
		{999, 95, true},      // 9 beyond p99
		{20, 50, true},       // 10 beyond the median
		{19, 0, false},       // 9 beyond the median
	} {
		got, ok := TailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("TailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - rank(got, c.n); beyond < 10 {
				t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, got, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}
