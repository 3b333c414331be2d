package main

import (
	"math"
	"sort"
	"time"
)

// Samples is a set of measured durations plus a count of failed
// operations. A failure never produced a latency; it counts as missing
// every latency limit, so percentiles rank it above every real sample.
type Samples struct {
	vals     []float64
	failures int
	sorted   bool
}

// Add records one successful measurement.
func (s *Samples) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// AddDuration records d in the given unit (time.Millisecond for ms).
func (s *Samples) AddDuration(d, unit time.Duration) { s.Add(float64(d) / float64(unit)) }

// Fail records one failed operation.
func (s *Samples) Fail() { s.failures++ }

// N returns the sample count, failures included.
func (s *Samples) N() int { return len(s.vals) + s.failures }

func (s *Samples) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// rank returns the 1-based nearest-rank position of percentile p among n
// samples. The tolerance keeps decimal percentiles such as 99.9 from
// rounding up a rank that is exact.
func rank(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Percentile returns the nearest-rank p-th percentile. It is +Inf when
// the rank falls on a failure and 0 when there are no samples.
func (s *Samples) Percentile(p float64) float64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	s.sort()
	k := rank(p, n)
	if k > len(s.vals) {
		return math.Inf(1)
	}
	return s.vals[k-1]
}

// tailCandidates are the percentiles a tail is reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// TailPercentile returns the highest candidate percentile that leaves at
// least ten samples beyond it among n samples, or false when even the
// median does not.
func TailPercentile(n int) (float64, bool) {
	for _, p := range tailCandidates {
		if n-rank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}
