package predict

import (
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

func TestWindowSetRowMatchesChangedIn(t *testing.T) {
	hs, fa, fb := buildSet(t)
	split := timeline.NewSpan(3, 24)
	for _, size := range []int{1, 3, 7} {
		ws := NewWindowSet(hs, split, size, nil)
		for _, field := range []changecube.FieldKey{fa, fb} {
			h, _ := hs.Get(field)
			row := ws.Row(field)
			if len(row) != len(ws.Windows()) {
				t.Fatalf("size %d: row length %d != %d windows", size, len(row), len(ws.Windows()))
			}
			for i, w := range ws.Windows() {
				if row[i] != h.ChangedIn(w.Span) {
					t.Fatalf("size %d field %v window %d: row %v != ChangedIn %v",
						size, field, i, row[i], h.ChangedIn(w.Span))
				}
			}
		}
	}
}

func TestWindowSetRowUnknownFieldAllFalse(t *testing.T) {
	hs, fa, _ := buildSet(t)
	ws := NewWindowSet(hs, timeline.NewSpan(0, 21), 7, nil)
	ghost := changecube.FieldKey{Entity: fa.Entity, Property: 999}
	for i, v := range ws.Row(ghost) {
		if v {
			t.Fatalf("unknown field row[%d] = true", i)
		}
	}
}

func TestBatchClampsTargetRow(t *testing.T) {
	hs, fa, fb := buildSet(t)
	ws := NewWindowSet(hs, timeline.NewSpan(0, 21), 7, nil)
	b := ws.For(fa)
	// The target changes inside several windows, but its clamped row must
	// be all false — a batch predictor can never observe the change it is
	// asked to predict.
	for i, v := range b.FieldChanged(fa) {
		if v {
			t.Fatalf("target row[%d] = true; leakage", i)
		}
	}
	// A non-target field is visible through the window end, exactly as the
	// one-window batch of the same window reports it.
	for i := 0; i < b.NumWindows(); i++ {
		one := OneWindow(hs, fa, b.Window(i).Span)
		if got, want := b.FieldChanged(fb)[i], one.FieldChanged(fb)[0]; got != want {
			t.Fatalf("partner row[%d] = %v, one-window batch says %v", i, got, want)
		}
		if one.FieldChanged(fa)[0] {
			t.Fatalf("one-window target row for window %d = true; leakage", i)
		}
	}
}

func TestBatchTargetDaysBeforeMatchesOneWindow(t *testing.T) {
	hs, fa, _ := buildSet(t)
	split := timeline.NewSpan(3, 24)
	for _, size := range []int{1, 3, 7} {
		ws := NewWindowSet(hs, split, size, nil)
		b := ws.For(fa)
		for i := 0; i < b.NumWindows(); i++ {
			got := b.TargetDaysBefore(i)
			want := OneWindow(hs, fa, b.Window(i).Span).TargetDaysBefore(0)
			if len(got) != len(want) {
				t.Fatalf("size %d window %d: TargetDaysBefore %v != one-window %v", size, i, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("size %d window %d: TargetDaysBefore %v != one-window %v", size, i, got, want)
				}
			}
		}
	}
}

func TestBatchTargetDaysBeforeInterleavedTargets(t *testing.T) {
	hs, fa, fb := buildSet(t)
	ws := NewWindowSet(hs, timeline.NewSpan(0, 21), 7, nil)
	a, b := ws.For(fa), ws.For(fb)
	// Two batches of one set take turns; each must see its own target.
	for i := 0; i < a.NumWindows(); i++ {
		for _, x := range []Batch{a, b, a} {
			want := OneWindow(hs, x.Target(), x.Window(i).Span).TargetDaysBefore(0)
			if got := x.TargetDaysBefore(i); len(got) != len(want) {
				t.Fatalf("target %v window %d: %v, want %v", x.Target(), i, got, want)
			}
		}
	}
}

func TestBatchTargetDaysBeforeUnknownTarget(t *testing.T) {
	hs, fa, _ := buildSet(t)
	ws := NewWindowSet(hs, timeline.NewSpan(0, 21), 7, nil)
	ghost := changecube.FieldKey{Entity: fa.Entity, Property: 999}
	b := ws.For(ghost)
	for i := 0; i < b.NumWindows(); i++ {
		if days := b.TargetDaysBefore(i); days != nil {
			t.Fatalf("unknown target days = %v, want nil", days)
		}
	}
}

func TestBatchAccessors(t *testing.T) {
	hs, fa, _ := buildSet(t)
	ws := NewWindowSet(hs, timeline.NewSpan(0, 21), 7, nil)
	b := ws.For(fa)
	if b.Target() != fa {
		t.Fatalf("Target = %v", b.Target())
	}
	if b.WindowSize() != 7 || ws.Size() != 7 {
		t.Fatalf("WindowSize = %d", b.WindowSize())
	}
	if b.NumWindows() != 3 || b.Window(2) != ws.Windows()[2] {
		t.Fatalf("NumWindows = %d", b.NumWindows())
	}
	if b.Cube() != hs.Cube() {
		t.Fatal("Cube mismatch")
	}
}

func TestPrecomputeRowsSharedAcrossWindowSets(t *testing.T) {
	hs, fa, fb := buildSet(t)
	split := timeline.NewSpan(0, 21)
	idx := PrecomputeRows(hs, split, []int{1, 7})
	if !idx.Matches(hs, split) {
		t.Fatal("index does not match its own inputs")
	}
	if idx.Matches(hs, timeline.NewSpan(0, 20)) {
		t.Fatal("index matches a different split")
	}
	for _, size := range []int{1, 7} {
		shared := NewWindowSet(hs, split, size, idx)
		fresh := NewWindowSet(hs, split, size, nil)
		for _, field := range []changecube.FieldKey{fa, fb} {
			a, b := shared.Row(field), fresh.Row(field)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("size %d field %v window %d: shared %v != fresh %v", size, field, i, a[i], b[i])
				}
			}
		}
	}
	// A size the index does not cover falls back to local merges.
	ws := NewWindowSet(hs, split, 3, idx)
	h, _ := hs.Get(fa)
	for i, w := range ws.Windows() {
		if ws.Row(fa)[i] != h.ChangedIn(w.Span) {
			t.Fatalf("uncovered size window %d wrong", i)
		}
	}
}

func TestPrecomputeRowsSkipsInvalidSizes(t *testing.T) {
	hs, _, _ := buildSet(t)
	split := timeline.NewSpan(0, 10)
	idx := PrecomputeRows(hs, split, []int{0, -3, 365, 7, 7})
	if len(idx.bySize) != 1 {
		t.Fatalf("bySize has %d entries, want 1 (only size 7 is valid)", len(idx.bySize))
	}
}

func TestBatchScratchRowsAreDistinct(t *testing.T) {
	hs, fa, _ := buildSet(t)
	ws := NewWindowSet(hs, timeline.NewSpan(0, 21), 7, nil)
	b := ws.For(fa)
	outer := b.Scratch()
	inner := b.Scratch()
	if len(outer) != 3 || len(inner) != 3 || &outer[0] == &inner[0] {
		t.Fatal("nested scratch rows overlap or have the wrong length")
	}
	b.Release()
	if again := ws.For(fa).Scratch(); &again[0] != &inner[0] {
		t.Fatal("a released row is not reused")
	}
}
