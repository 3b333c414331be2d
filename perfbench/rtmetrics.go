package main

import (
	"math"
	"runtime/metrics"
	"time"
)

const (
	rtGCPauses = "/sched/pauses/total/gc:seconds"
	rtSchedLat = "/sched/latencies:seconds"
	rtGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU = "/cpu/classes/total:cpu-seconds"
	rtHeapLive = "/gc/heap/live:bytes"
)

// rtSnapshot is one reading of the runtime metrics the benchmark
// reports as deltas over a measured phase.
type rtSnapshot map[string]metrics.Value

func readRuntime() rtSnapshot {
	s := []metrics.Sample{{Name: rtGCPauses}, {Name: rtSchedLat}, {Name: rtGCCPU}, {Name: rtTotalCPU}}
	metrics.Read(s)
	out := make(rtSnapshot, len(s))
	for _, v := range s {
		out[v.Name] = v.Value
	}
	return out
}

// RuntimeDelta is what the Go runtime did between two snapshots.
type RuntimeDelta struct {
	GCPauseP99Ms, SchedLatencyP99Ms, GCCPUFrac float64
}

func runtimeDelta(before, after rtSnapshot) RuntimeDelta {
	d := RuntimeDelta{
		GCPauseP99Ms:      1000 * histDeltaPercentile(before[rtGCPauses], after[rtGCPauses], 99),
		SchedLatencyP99Ms: 1000 * histDeltaPercentile(before[rtSchedLat], after[rtSchedLat], 99),
	}
	if before[rtGCCPU].Kind() == metrics.KindFloat64 && after[rtTotalCPU].Kind() == metrics.KindFloat64 {
		gc := after[rtGCCPU].Float64() - before[rtGCCPU].Float64()
		total := after[rtTotalCPU].Float64() - before[rtTotalCPU].Float64()
		if total > 0 {
			d.GCCPUFrac = gc / total
		}
	}
	return d
}

// histDeltaPercentile returns the upper bound of the bucket holding the
// p-th percentile of the observations added between two readings of a
// runtime histogram (the lower bound when the upper is infinite).
func histDeltaPercentile(before, after metrics.Value, p float64) float64 {
	if before.Kind() != metrics.KindFloat64Histogram || after.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	b, a := before.Float64Histogram(), after.Float64Histogram()
	if len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range a.Counts {
		total += a.Counts[i] - b.Counts[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(p / 100 * float64(total)))
	var cum uint64
	for i := range a.Counts {
		cum += a.Counts[i] - b.Counts[i]
		if cum >= need {
			hi := a.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return a.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// liveHeap returns the live heap marked by the latest collection.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: rtHeapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch samples the live heap (as marked by the latest GC) every
// period and keeps the peak. Unlike the bytes in use, it does not depend
// on where in its cycle the collector happens to be.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampler only; read after done closes
}

func watchHeap(period time.Duration) *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			h.peak = max(h.peak, liveHeap())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapWatch) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
