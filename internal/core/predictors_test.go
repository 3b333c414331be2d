package core

import (
	"testing"

	"github.com/wikistale/wikistale/internal/baseline"
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// TestPredictorRowsMatchOneWindowQuestions is the reference check for the
// two ways a predictor is asked: every predictor of the trained detector
// must give, for each tumbling window of the test year, the same verdict
// from its row over a WindowSet (rows merged per field, with and without a
// shared RowIndex) as from the one-window batch of that window alone
// (changes looked up directly in the histories).
func TestPredictorRowsMatchOneWindowQuestions(t *testing.T) {
	det, _ := detector(t)
	hs := det.Histories()
	split := det.Splits().Test
	predictors := append(det.Predictors(),
		det.ExtendedOrEnsemble(), det.Seasonal(), det.FamilyCorrelations(), baseline.DefaultForecast())

	// Every 5th recorded field, plus fields only rule coverage speaks for.
	var targets []changecube.FieldKey
	for i, h := range hs.Histories() {
		if i%5 == 0 {
			targets = append(targets, h.Field)
		}
	}
	targets = append(targets, det.HistorylessConsequents()...)

	shared := predict.PrecomputeRows(hs, split, timeline.StandardSizes)
	fired := make(map[string]int)
	one := make([]bool, 1)
	for _, size := range timeline.StandardSizes {
		for _, index := range []*predict.RowIndex{nil, shared} {
			ws := predict.NewWindowSet(hs, split, size, index)
			row := make([]bool, len(ws.Windows()))
			for _, target := range targets {
				b := ws.For(target)
				for _, p := range predictors {
					p.PredictWindows(b, row)
					for i, w := range ws.Windows() {
						p.PredictWindows(predict.OneWindow(hs, target, w.Span), one)
						if row[i] != one[0] {
							t.Fatalf("%s size %d shared=%v field %v window %d: row %v, one-window %v",
								p.Name(), size, index != nil, target, i, row[i], one[0])
						}
						if row[i] {
							fired[p.Name()]++
						}
					}
				}
			}
		}
	}
	// The comparison is vacuous for a predictor that never fires.
	for _, p := range predictors {
		if fired[p.Name()] == 0 {
			t.Errorf("%s never fired on the sampled fields", p.Name())
		}
	}
}
