package predict

import (
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/timeline"
)

func buildSet(t *testing.T) (*changecube.HistorySet, changecube.FieldKey, changecube.FieldKey) {
	t.Helper()
	c := changecube.New()
	e := c.AddEntityNamed("infobox t", "Page")
	a := changecube.PropertyID(c.Properties.Intern("a"))
	b := changecube.PropertyID(c.Properties.Intern("b"))
	fa := changecube.FieldKey{Entity: e, Property: a}
	fb := changecube.FieldKey{Entity: e, Property: b}
	hs, err := changecube.NewHistorySet(c, []changecube.History{
		changecube.NewHistory(fa, []timeline.Day{5, 10, 15, 20}),
		changecube.NewHistory(fb, []timeline.Day{5, 12, 15}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return hs, fa, fb
}

func TestTargetDaysStopAtWindowStart(t *testing.T) {
	hs, fa, _ := buildSet(t)
	days := OneWindow(hs, fa, timeline.NewSpan(10, 17)).TargetDaysBefore(0)
	if len(days) != 1 || days[0] != 5 {
		t.Fatalf("TargetDaysBefore = %v, want [5] (changes at 10, 15 are hidden)", days)
	}
}

func TestFieldChangedInClampsTargetToWindowStart(t *testing.T) {
	hs, fa, _ := buildSet(t)
	b := OneWindow(hs, fa, timeline.NewSpan(10, 17))
	// The target's own changes at day 10 and 15 must be invisible.
	if b.FieldChanged(fa)[0] {
		t.Fatal("target change inside window leaked")
	}
	// Its change before the window start stays visible.
	if days := b.TargetDaysBefore(0); len(days) != 1 || days[0] != 5 {
		t.Fatalf("target change before window start hidden: %v", days)
	}
}

func TestFieldChangedInClampsOthersToWindowEnd(t *testing.T) {
	hs, fa, fb := buildSet(t)
	// fb changed on day 12 (inside window): visible.
	if !OneWindow(hs, fa, timeline.NewSpan(10, 14)).FieldChanged(fb)[0] {
		t.Fatal("other field's in-window change invisible")
	}
	// fb's change on day 15, the end of [13, 15), lies after the window.
	if OneWindow(hs, fa, timeline.NewSpan(13, 15)).FieldChanged(fb)[0] {
		t.Fatal("future change beyond window end leaked")
	}
}

func TestFieldChangedInUnknownField(t *testing.T) {
	hs, fa, _ := buildSet(t)
	w := timeline.NewSpan(0, 10)
	ghost := changecube.FieldKey{Entity: 0, Property: 99}
	if OneWindow(hs, fa, w).FieldChanged(ghost)[0] {
		t.Fatal("unknown field reported a change")
	}
	if OneWindow(hs, ghost, w).TargetDaysBefore(0) != nil {
		t.Fatal("unknown target reported days")
	}
}

func TestAccessors(t *testing.T) {
	hs, fa, _ := buildSet(t)
	span := timeline.NewSpan(1, 3)
	b := OneWindow(hs, fa, span)
	if b.Target() != fa || b.Window(0) != (timeline.Window{Span: span}) || b.Cube() != hs.Cube() ||
		b.NumWindows() != 1 || b.WindowSize() != 2 {
		t.Fatal("accessors broken")
	}
}

func TestOneWindowAllocatesNothing(t *testing.T) {
	hs, fa, fb := buildSet(t)
	w := timeline.NewSpan(10, 17)
	allocs := testing.AllocsPerRun(100, func() {
		b := OneWindow(hs, fa, w)
		_ = b.FieldChanged(fb)
		_ = b.TargetDaysBefore(0)
	})
	if allocs != 0 {
		t.Fatalf("one-window batch allocates %v times per question", allocs)
	}
}

func TestFuncAdapter(t *testing.T) {
	hs, fa, _ := buildSet(t)
	p := Func{PredictorName: "even", Fn: func(b Batch, i int) bool { return i%2 == 0 }}
	b := NewWindowSet(hs, timeline.NewSpan(0, 21), 7, nil).For(fa)
	out := []bool{false, true, false}
	p.PredictWindows(b, out)
	if p.Name() != "even" || !out[0] || out[1] || !out[2] {
		t.Fatalf("Func adapter broken: %v", out)
	}
}
