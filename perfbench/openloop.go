package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Arrival is one scheduled operation of an open-loop run.
type Arrival struct {
	Due     time.Time // when the schedule says it arrives
	Sent    time.Time // when it entered the queue: its due time, or when a waiting worker woke for it
	Start   time.Time // when a worker, and with it a connection, took it
	Done    time.Time
	Dropped bool  // no worker took it within the queue's deadline
	Err     error // the operation failed
}

// Failed reports whether the arrival counts as a failure.
func (a *Arrival) Failed() bool { return a.Dropped || a.Err != nil }

// Latency is the time from the scheduled arrival to completion, so a
// stall charges its wait to every arrival behind it.
func (a *Arrival) Latency() time.Duration { return a.Done.Sub(a.Due) }

// Late is how far behind schedule the generator offered the arrival.
func (a *Arrival) Late() time.Duration { return a.Sent.Sub(a.Due) }

// QueueWait is the time from the scheduled arrival until a worker took
// it.
func (a *Arrival) QueueWait() time.Duration { return a.Start.Sub(a.Due) }

// OpenLoop runs Count arrivals, one due every Interval, on Workers
// goroutines. A free worker takes the next arrival in schedule order and
// sleeps until it is due, so no dispatcher goroutine sits between the
// schedule and the request. An arrival that comes due while every worker
// is busy waits for the first to free up; one still waiting QueueCap
// intervals after it came due is dropped, never run late, so the offered
// load does not bend to the system's speed.
type OpenLoop struct {
	Interval time.Duration
	Count    int
	Workers  int
	QueueCap int
	// Sleep blocks until the given time; nil means sleepUntil.
	Sleep func(time.Time)
}

// Run executes the schedule from start and returns every arrival in
// schedule order once all have finished. do runs one arrival on a worker;
// its error marks the arrival failed.
func (o OpenLoop) Run(ctx context.Context, start time.Time, do func(worker, index int) error) []Arrival {
	arr := make([]Arrival, o.Count)
	sleep := o.Sleep
	if sleep == nil {
		sleep = sleepUntil
	}
	deadline := time.Duration(max(o.QueueCap, 1)) * o.Interval
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < max(o.Workers, 1); w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arr) {
					return
				}
				a := &arr[i]
				a.Due = start.Add(time.Duration(i) * o.Interval)
				if ctx.Err() != nil {
					a.Dropped = true
					continue
				}
				if time.Now().Before(a.Due) {
					// The worker was free before the arrival came due:
					// how late it wakes is the generator's lateness.
					sleep(a.Due)
					a.Sent = time.Now()
				} else {
					// The arrival came due while every worker was busy
					// and has queued since.
					a.Sent = a.Due
				}
				a.Start = time.Now()
				if a.Start.Sub(a.Due) > deadline {
					a.Dropped = true
					continue
				}
				a.Err = do(worker, i)
				a.Done = time.Now()
			}
		}(w)
	}
	wg.Wait()
	return arr
}

// LoopStats summarises an open-loop run: latency from the scheduled
// time with failures ranked last, generator lateness, and queue wait.
type LoopStats struct {
	Attempted, Failed, Dropped int
	Latency, Late, QueueWait   Samples
}

// Summarise folds arrivals into LoopStats, in the given time unit.
func Summarise(arr []Arrival, unit time.Duration) LoopStats {
	var s LoopStats
	for i := range arr {
		a := &arr[i]
		s.Attempted++
		if a.Dropped {
			s.Dropped++
		} else {
			s.Late.AddDuration(a.Late(), unit)
			s.QueueWait.AddDuration(a.QueueWait(), unit)
		}
		if a.Failed() {
			s.Failed++
			s.Latency.Fail()
			continue
		}
		s.Latency.AddDuration(a.Latency(), unit)
	}
	return s
}
