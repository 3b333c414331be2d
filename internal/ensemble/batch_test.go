package ensemble

import (
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// evenWeeks predicts exactly the windows that start in an even week, so
// its verdict depends on the window, not on how the batch is laid out.
var evenWeeks = predict.Func{PredictorName: "even", Fn: func(b predict.Batch, i int) bool {
	return b.Window(i).Start/7%2 == 0
}}

func batchSet(t *testing.T) (*changecube.HistorySet, changecube.FieldKey) {
	t.Helper()
	c := changecube.New()
	e := c.AddEntityNamed("t", "p")
	f := changecube.FieldKey{Entity: e, Property: changecube.PropertyID(c.Properties.Intern("x"))}
	hs, err := changecube.NewHistorySet(c, []changecube.History{
		changecube.NewHistory(f, []timeline.Day{2, 9, 23}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return hs, f
}

// TestEnsemblePredictWindowsMatchesScalar mixes constant and
// window-dependent members, including nested ensembles, and checks the
// row of every combination over tumbling windows (combined through
// scratch rows) against its one-window questions (combined in place).
func TestEnsemblePredictWindowsMatchesScalar(t *testing.T) {
	hs, f := batchSet(t)
	ws := predict.NewWindowSet(hs, timeline.NewSpan(0, 28), 7, nil)
	b := ws.For(f)
	members := [][]predict.Predictor{
		{},
		{evenWeeks},
		{constant("t", true), constant("f", false)},
		{evenWeeks, constant("f", false)},
		{constant("f", false), evenWeeks, constant("t", true)},
		{And{Members: []predict.Predictor{evenWeeks, constant("t", true)}}, evenWeeks},
		{evenWeeks, Or{Members: []predict.Predictor{constant("f", false), evenWeeks}}},
		{constant("t", true), Or{Members: []predict.Predictor{evenWeeks, constant("f", false)}}},
	}
	for _, ms := range members {
		for _, p := range []predict.Predictor{Or{Members: ms}, And{Members: ms}} {
			row := make([]bool, b.NumWindows())
			p.PredictWindows(b, row)
			one := make([]bool, 1)
			for i := range row {
				p.PredictWindows(predict.OneWindow(hs, f, b.Window(i).Span), one)
				if row[i] != one[0] {
					t.Fatalf("%s with %d members, window %d: row %v != one-window %v",
						p.Name(), len(ms), i, row[i], one[0])
				}
			}
		}
	}
}

// TestEnsembleBatchReusesOutForStaleValues verifies the contract that out
// may hold stale values from a previous call and must be fully overwritten.
func TestEnsembleBatchReusesOutForStaleValues(t *testing.T) {
	hs, f := batchSet(t)
	ws := predict.NewWindowSet(hs, timeline.NewSpan(0, 28), 7, nil)
	b := ws.For(f)
	out := []bool{true, true, true, true}
	Or{}.PredictWindows(b, out)
	for i, v := range out {
		if v {
			t.Fatalf("empty Or left stale value at %d", i)
		}
	}
	out = []bool{true, true, true, true}
	And{Members: []predict.Predictor{constant("f", false)}}.PredictWindows(b, out)
	for i, v := range out {
		if v {
			t.Fatalf("And left stale value at %d", i)
		}
	}
}
