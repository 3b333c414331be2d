package eval

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/wikistale/wikistale/internal/assocrules"
	"github.com/wikistale/wikistale/internal/baseline"
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/correlation"
	"github.com/wikistale/wikistale/internal/ensemble"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

func TestEvaluateRejectsPerWindowSizesOutsideSizes(t *testing.T) {
	hs, _, _ := twoFieldSet(t)
	p := predict.Func{PredictorName: "p", Fn: func(predict.Batch, int) bool { return false }}
	split := timeline.NewSpan(0, 30)
	if _, err := Evaluate(hs, split, []predict.Predictor{p},
		Options{Sizes: []int{1}, OverTimeSize: 7}); err == nil {
		t.Error("OverTimeSize outside Sizes accepted")
	}
	if _, err := Evaluate(hs, split, []predict.Predictor{p},
		Options{Sizes: []int{1}, ByTemplateSize: 7}); err == nil {
		t.Error("ByTemplateSize outside Sizes accepted")
	}
	// The sections must still work when the size is evaluated.
	report, err := Evaluate(hs, split, []predict.Predictor{p},
		Options{Sizes: []int{1, 7}, OverTimeSize: 7, ByTemplateSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.OverTime["p"]) == 0 {
		t.Error("OverTime series empty for an evaluated size")
	}
}

func TestEvaluateRejectsSelfOverlapPair(t *testing.T) {
	hs, _, _ := twoFieldSet(t)
	p := predict.Func{PredictorName: "p", Fn: func(predict.Batch, int) bool { return false }}
	q := predict.Func{PredictorName: "q", Fn: func(predict.Batch, int) bool { return false }}
	if _, err := Evaluate(hs, timeline.NewSpan(0, 10), []predict.Predictor{p, q},
		Options{Sizes: []int{1}, OverlapPairs: [][2]int{{1, 1}}}); err == nil {
		t.Error("self overlap pair accepted")
	}
}

func TestEvaluateRejectsMismatchedRows(t *testing.T) {
	hs, _, _ := twoFieldSet(t)
	p := predict.Func{PredictorName: "p", Fn: func(predict.Batch, int) bool { return false }}
	split := timeline.NewSpan(0, 20)
	other := predict.PrecomputeRows(hs, timeline.NewSpan(0, 10), []int{1})
	if _, err := Evaluate(hs, split, []predict.Predictor{p},
		Options{Sizes: []int{1}, Rows: other}); err == nil {
		t.Error("Rows precomputed for a different split accepted")
	}
}

// richSet generates a seeded corpus large enough to train real predictors:
// pages of four fields where fields 0 and 1 co-change (the signal the
// correlation and association-rule predictors mine), field 2 follows its
// own schedule and field 3 is sparse.
func richSet(t *testing.T) *changecube.HistorySet {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	c := changecube.New()
	var histories []changecube.History
	templates := []string{"infobox person", "infobox settlement"}
	for page := 0; page < 12; page++ {
		e := c.AddEntityNamed(templates[page%len(templates)], string(rune('A'+page)))
		var co, own, sparse []timeline.Day
		for d := timeline.Day(3 + rng.Intn(4)); d < 240; d += timeline.Day(4 + rng.Intn(6)) {
			co = append(co, d)
		}
		for d := timeline.Day(1 + rng.Intn(9)); d < 240; d += timeline.Day(6 + rng.Intn(10)) {
			own = append(own, d)
		}
		for d := timeline.Day(rng.Intn(30)); d < 240; d += timeline.Day(25 + rng.Intn(40)) {
			sparse = append(sparse, d)
		}
		names := []string{"pop", "area", "leader", "motto"}
		days := [][]timeline.Day{co, co, own, sparse}
		for i, name := range names {
			f := changecube.FieldKey{Entity: e, Property: changecube.PropertyID(c.Properties.Intern(name))}
			histories = append(histories, changecube.NewHistory(f, days[i]))
		}
	}
	hs, err := changecube.NewHistorySet(c, histories)
	if err != nil {
		t.Fatal(err)
	}
	return hs
}

// paperPredictors trains the full predictor roster used by the paper's
// evaluation on the training part of the rich corpus.
func paperPredictors(t *testing.T, hs *changecube.HistorySet) []predict.Predictor {
	t.Helper()
	train := timeline.NewSpan(0, 120)
	val := timeline.NewSpan(60, 120)
	corrCfg := correlation.Default()
	corr, err := correlation.Train(hs, train, corrCfg)
	if err != nil {
		t.Fatal(err)
	}
	assocCfg := assocrules.Default()
	assocCfg.MinValidationFires = 1
	assocCfg.ValidationFraction = 0.25
	assoc, err := assocrules.Train(hs, train, assocCfg)
	if err != nil {
		t.Fatal(err)
	}
	thr, err := baseline.TrainThreshold(hs, val, []int{1, 7, 30}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	and, or := ensemble.Paper(corr, assoc)
	return []predict.Predictor{
		corr, assoc, baseline.Mean{}, thr, baseline.DefaultForecast(), and, or,
	}
}

// TestEvaluateBatchScalarParity is the evaluation's determinism contract:
// shared precomputed rows and any processor count must all produce the
// same report, bit for bit.
func TestEvaluateBatchScalarParity(t *testing.T) {
	hs := richSet(t)
	split := timeline.NewSpan(120, 240)
	predictors := paperPredictors(t, hs)
	opts := Options{
		Sizes:          []int{1, 7, 30},
		OverTimeSize:   7,
		ByTemplateSize: 7,
		OverlapPairs:   [][2]int{{0, 1}, {0, 6}},
	}
	ref, err := evaluateAtProcs(1, hs, split, predictors, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Real rules must have been learned, or the parity check is vacuous.
	if c := ref.BySize[predictors[0].Name()][7]; c.Predictions() == 0 {
		t.Fatalf("correlation predictor never fired; corpus too weak: %+v", c)
	}

	withRows := opts
	withRows.Rows = predict.PrecomputeRows(hs, split, opts.Sizes)
	runs := []struct {
		name  string
		procs int
		opts  Options
	}{
		{"GOMAXPROCS=8", 8, opts},
		{"shared rows GOMAXPROCS=4", 4, withRows},
	}
	for _, run := range runs {
		got, err := evaluateAtProcs(run.procs, hs, split, predictors, run.opts)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("%s: report differs from the GOMAXPROCS=1 reference", run.name)
		}
	}
}
