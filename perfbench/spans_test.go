package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		// Two overlapping children cover [10, 50); the overlap counts once.
		{ID: 2, Parent: 1, Name: "handler", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "handler", Start: 20, End: 50},
		// A child running past its parent is clipped to [90, 100).
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		// A grandchild reduces its own parent only.
		{ID: 5, Parent: 3, Name: "detect", Start: 25, End: 45},
		{ID: 6, Name: "other root", Start: 0, End: 7},
	}
	self := SelfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 7} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderNilIsUntraced(t *testing.T) {
	var r *Recorder
	if id := r.NewID(); id != 0 {
		t.Fatalf("nil recorder allocated id %d", id)
	}
	r.Add(1, 0, 1, "x", time.Now(), time.Now())
	if len(r.Spans()) != 0 {
		t.Fatal("nil recorder kept a span")
	}
}

func TestRecorderTimesFromBase(t *testing.T) {
	r := NewRecorder()
	start := r.base.Add(5 * time.Millisecond)
	id := r.NewID()
	r.Add(id, 0, id, "root", start, start.Add(3*time.Millisecond))
	s := r.Spans()
	if len(s) != 1 || s[0].Start != int64(5*time.Millisecond) || s[0].Dur() != 3*time.Millisecond {
		t.Fatalf("spans = %+v", s)
	}
}
