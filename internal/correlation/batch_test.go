package correlation

import (
	"testing"

	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// TestPredictWindowsMatchesScalar checks that the verdict row over a
// WindowSet equals, window by window, the scalar question: the one-window
// batch of that window alone.
func TestPredictWindowsMatchesScalar(t *testing.T) {
	hs, _ := corpus(t)
	p, err := Train(hs, timeline.NewSpan(0, 2000), Config{Theta: 0.25, MinSpanChanges: 5})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRules() == 0 {
		t.Fatal("no rules trained; equivalence check would be vacuous")
	}
	split := timeline.NewSpan(0, 1470)
	one := make([]bool, 1)
	for _, size := range []int{7, 365} {
		ws := predict.NewWindowSet(hs, split, size, nil)
		for _, h := range hs.Histories() {
			b := ws.For(h.Field)
			batch := make([]bool, b.NumWindows())
			p.PredictWindows(b, batch)
			for i := range batch {
				p.PredictWindows(predict.OneWindow(hs, h.Field, b.Window(i).Span), one)
				if batch[i] != one[0] {
					t.Fatalf("size %d field %v window %d: batch %v != scalar %v",
						size, h.Field, i, batch[i], one[0])
				}
			}
		}
	}
}
