package main

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// stubServer answers every request after delay.
func stubServer(t *testing.T, delay time.Duration) (*httptest.Server, func(worker, i int) error) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		io.WriteString(w, "ok")
	}))
	t.Cleanup(srv.Close)
	client := newClient(1)
	do := func(_, _ int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	}
	return srv, do
}

func TestOpenLoopDropsWhenTheQueueIsFull(t *testing.T) {
	// One worker needs 20 ms per request while arrivals come every 2 ms
	// and may wait two intervals: most arrivals must be dropped, not
	// delayed.
	_, do := stubServer(t, 20*time.Millisecond)
	loop := OpenLoop{Interval: 2 * time.Millisecond, Count: 50, Workers: 1, QueueCap: 2}
	arr := loop.Run(context.Background(), time.Now(), do)
	st := Summarise(arr, time.Millisecond)
	if st.Attempted != 50 {
		t.Fatalf("attempted = %d, want every scheduled arrival", st.Attempted)
	}
	if st.Dropped == 0 || st.Dropped >= 50 {
		t.Fatalf("dropped = %d, want some but not all", st.Dropped)
	}
	if st.Failed != st.Dropped {
		t.Fatalf("failed = %d, dropped = %d: drops must count as failures", st.Failed, st.Dropped)
	}
	if st.Latency.N() != 50 || !math.IsInf(st.Latency.Percentile(100), 1) {
		t.Fatalf("latency n=%d max=%g: drops must rank as missing every limit", st.Latency.N(), st.Latency.Percentile(100))
	}
	for i := range arr {
		a := &arr[i]
		if a.Dropped {
			continue
		}
		if a.Latency() < 20*time.Millisecond {
			t.Fatalf("arrival %d: latency %v below the stub's delay", i, a.Latency())
		}
		if a.QueueWait() < 0 || a.Latency() < a.QueueWait() {
			t.Fatalf("arrival %d: queue wait %v, latency %v", i, a.QueueWait(), a.Latency())
		}
		if a.QueueWait() > 4*time.Millisecond+time.Millisecond {
			t.Fatalf("arrival %d ran after waiting %v, past the two-interval deadline", i, a.QueueWait())
		}
	}
}

func TestOpenLoopChargesLatenessFromTheSchedule(t *testing.T) {
	// A generator that wakes 5 ms after every due time: each arrival is
	// offered 5 ms late, and that lateness is part of its latency.
	_, do := stubServer(t, 0)
	const late = 5 * time.Millisecond
	loop := OpenLoop{Interval: 10 * time.Millisecond, Count: 10, Workers: 2, QueueCap: 16,
		Sleep: func(due time.Time) { time.Sleep(time.Until(due) + late) }}
	arr := loop.Run(context.Background(), time.Now().Add(time.Millisecond), do)
	st := Summarise(arr, time.Millisecond)
	if st.Dropped != 0 || st.Failed != 0 {
		t.Fatalf("dropped %d, failed %d", st.Dropped, st.Failed)
	}
	for i := range arr {
		a := &arr[i]
		if a.Late() < late {
			t.Fatalf("arrival %d late by %v, want ≥ %v", i, a.Late(), late)
		}
		if a.Latency() < a.Late() || a.QueueWait() < a.Late() {
			t.Fatalf("arrival %d: latency %v, queue wait %v, lateness %v", i, a.Latency(), a.QueueWait(), a.Late())
		}
	}
	if got := st.Late.Percentile(100); got < 5 {
		t.Fatalf("max lateness %g ms, want ≥ 5", got)
	}
	if arr[9].Due.Sub(arr[0].Due) != 90*time.Millisecond {
		t.Fatalf("schedule spacing %v", arr[9].Due.Sub(arr[0].Due))
	}
}

func TestOpenLoopQueuedArrivalsAreNotLate(t *testing.T) {
	// A schedule that started 50 ms ago: the first arrivals came due
	// while no worker was free. They waited in the queue, which their
	// latency includes, but the generator offered them on time.
	_, do := stubServer(t, 0)
	start := time.Now().Add(-50 * time.Millisecond)
	loop := OpenLoop{Interval: 10 * time.Millisecond, Count: 10, Workers: 2, QueueCap: 16}
	arr := loop.Run(context.Background(), start, do)
	st := Summarise(arr, time.Millisecond)
	if st.Dropped != 0 || st.Failed != 0 {
		t.Fatalf("dropped %d, failed %d", st.Dropped, st.Failed)
	}
	if arr[0].Late() != 0 {
		t.Fatalf("first arrival late by %v, want 0: it was queued", arr[0].Late())
	}
	if w := arr[0].QueueWait(); w < 50*time.Millisecond || arr[0].Latency() < w {
		t.Fatalf("first arrival: queue wait %v, latency %v; want both ≥ 50ms", w, arr[0].Latency())
	}
}

func TestOpenLoopCountsErrors(t *testing.T) {
	boom := errors.New("boom")
	loop := OpenLoop{Interval: time.Millisecond, Count: 10, Workers: 2, QueueCap: 16}
	arr := loop.Run(context.Background(), time.Now(), func(_, i int) error {
		if i%2 == 0 {
			return boom
		}
		return nil
	})
	st := Summarise(arr, time.Millisecond)
	if st.Failed != 5 || st.Dropped != 0 || st.Latency.N() != 10 {
		t.Fatalf("failed %d, dropped %d, n %d", st.Failed, st.Dropped, st.Latency.N())
	}
}
