package baseline

import (
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// mixedSet covers the regimes each baseline branches on: a regular field,
// an irregular one, a sparse one and a single-change one.
func mixedSet(t *testing.T) *changecube.HistorySet {
	t.Helper()
	c := changecube.New()
	e := c.AddEntityNamed("t", "p")
	field := func(name string) changecube.FieldKey {
		return changecube.FieldKey{Entity: e, Property: changecube.PropertyID(c.Properties.Intern(name))}
	}
	var regular []timeline.Day
	for d := timeline.Day(0); d < 200; d += 10 {
		regular = append(regular, d)
	}
	hs, err := changecube.NewHistorySet(c, []changecube.History{
		changecube.NewHistory(field("regular"), regular),
		changecube.NewHistory(field("irregular"), []timeline.Day{3, 4, 40, 41, 42, 90, 180}),
		changecube.NewHistory(field("sparse"), []timeline.Day{150}),
		changecube.NewHistory(field("early"), []timeline.Day{50}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return hs
}

// assertBatchMatchesScalar checks that p's verdict row over a WindowSet
// equals, window by window, the scalar question: the one-window batch of
// that window alone.
func assertBatchMatchesScalar(t *testing.T, p predict.Predictor, hs *changecube.HistorySet, split timeline.Span, sizes []int) {
	t.Helper()
	one := make([]bool, 1)
	for _, size := range sizes {
		ws := predict.NewWindowSet(hs, split, size, nil)
		for _, h := range hs.Histories() {
			b := ws.For(h.Field)
			batch := make([]bool, b.NumWindows())
			p.PredictWindows(b, batch)
			for i := range batch {
				p.PredictWindows(predict.OneWindow(hs, h.Field, b.Window(i).Span), one)
				if batch[i] != one[0] {
					t.Fatalf("%s size %d field %v window %d: batch %v != scalar %v",
						p.Name(), size, h.Field, i, batch[i], one[0])
				}
			}
		}
	}
}

func TestBaselinePredictWindowsMatchScalar(t *testing.T) {
	hs := mixedSet(t)
	split := timeline.NewSpan(100, 200)
	sizes := []int{1, 7, 30}
	thr, err := TrainThreshold(hs, timeline.NewSpan(0, 100), sizes, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []predict.Predictor{Mean{}, thr, DefaultForecast()} {
		assertBatchMatchesScalar(t, p, hs, split, sizes)
	}
	// A size the threshold baseline was not trained for still has to agree
	// (both paths never predict).
	assertBatchMatchesScalar(t, thr, hs, split, []int{3})
}
