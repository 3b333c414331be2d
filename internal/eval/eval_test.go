package eval

import (
	"runtime"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

func TestCountsMetrics(t *testing.T) {
	c := Counts{TP: 8, FP: 2, FN: 24, TN: 100}
	if got := c.Precision(); got != 0.8 {
		t.Fatalf("precision = %v", got)
	}
	if got := c.Recall(); got != 0.25 {
		t.Fatalf("recall = %v", got)
	}
	if c.Predictions() != 10 || c.Changed() != 32 {
		t.Fatalf("predictions=%d changed=%d", c.Predictions(), c.Changed())
	}
	var zero Counts
	if zero.Precision() != 0 || zero.Recall() != 0 {
		t.Fatal("zero counts should yield zero metrics")
	}
}

func TestOverlapFractions(t *testing.T) {
	o := OverlapCounts{Both: 40, OnlyA: 60, OnlyB: 10}
	if got := o.FractionA(); got != 0.4 {
		t.Fatalf("FractionA = %v", got)
	}
	if got := o.FractionB(); got != 0.8 {
		t.Fatalf("FractionB = %v", got)
	}
	var zero OverlapCounts
	if zero.FractionA() != 0 || zero.FractionB() != 0 {
		t.Fatal("zero overlap fractions")
	}
}

// twoFieldSet builds a set with two fields: "steady" changes on every even
// day; "quiet" changes only on day 2.
func twoFieldSet(t *testing.T) (*changecube.HistorySet, changecube.FieldKey, changecube.FieldKey) {
	t.Helper()
	c := changecube.New()
	e := c.AddEntityNamed("t", "p")
	steady := changecube.FieldKey{Entity: e, Property: changecube.PropertyID(c.Properties.Intern("steady"))}
	quiet := changecube.FieldKey{Entity: e, Property: changecube.PropertyID(c.Properties.Intern("quiet"))}
	var evens []timeline.Day
	for d := timeline.Day(0); d < 100; d += 2 {
		evens = append(evens, d)
	}
	hs, err := changecube.NewHistorySet(c, []changecube.History{
		changecube.NewHistory(steady, evens),
		changecube.NewHistory(quiet, []timeline.Day{2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return hs, steady, quiet
}

func TestEvaluatePerfectAndNeverPredictors(t *testing.T) {
	hs, _, _ := twoFieldSet(t)
	split := timeline.NewSpan(0, 20)
	// The oracle cheats by reading the ground truth directly — it measures
	// the harness, not a real predictor.
	oracle := predict.Func{PredictorName: "oracle", Fn: func(b predict.Batch, i int) bool {
		h, _ := hs.Get(b.Target())
		return h.ChangedIn(b.Window(i).Span)
	}}
	never := predict.Func{PredictorName: "never", Fn: func(predict.Batch, int) bool { return false }}
	always := predict.Func{PredictorName: "always", Fn: func(predict.Batch, int) bool { return true }}

	report, err := Evaluate(hs, split, []predict.Predictor{oracle, never, always}, Options{Sizes: []int{1, 7}})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth at size 1 over [0,20): steady changes in 10 windows,
	// quiet in 1 -> 11 changed windows of 40 total (2 fields x 20).
	oc := report.BySize["oracle"][1]
	if oc.TP != 11 || oc.FP != 0 || oc.FN != 0 || oc.TN != 29 {
		t.Fatalf("oracle 1d counts = %+v", oc)
	}
	if oc.Precision() != 1 || oc.Recall() != 1 {
		t.Fatalf("oracle metrics wrong: %+v", oc)
	}
	nc := report.BySize["never"][1]
	if nc.TP != 0 || nc.FP != 0 || nc.FN != 11 || nc.TN != 29 {
		t.Fatalf("never 1d counts = %+v", nc)
	}
	ac := report.BySize["always"][1]
	if ac.Predictions() != 40 || ac.TP != 11 || ac.FP != 29 {
		t.Fatalf("always 1d counts = %+v", ac)
	}
	// 7-day windows over [0,20): 2 complete windows x 2 fields. steady
	// changes in both; quiet changes in window 0 only.
	o7 := report.BySize["oracle"][7]
	if o7.TP != 3 || o7.TN != 1 {
		t.Fatalf("oracle 7d counts = %+v", o7)
	}
	if report.Fields != 2 {
		t.Fatalf("fields = %d", report.Fields)
	}
}

func TestEvaluateOverTime(t *testing.T) {
	hs, _, _ := twoFieldSet(t)
	split := timeline.NewSpan(0, 21)
	always := predict.Func{PredictorName: "always", Fn: func(predict.Batch, int) bool { return true }}
	report, err := Evaluate(hs, split, []predict.Predictor{always},
		Options{Sizes: []int{7}, OverTimeSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	series := report.OverTime["always"]
	if len(series) != 3 {
		t.Fatalf("series length = %d", len(series))
	}
	// Window 0 ([0,7)): steady + quiet changed -> TP 2. Windows 1, 2: only
	// steady -> TP 1, FP 1.
	if series[0].TP != 2 || series[0].FP != 0 {
		t.Fatalf("week 0 = %+v", series[0])
	}
	if series[1].TP != 1 || series[1].FP != 1 {
		t.Fatalf("week 1 = %+v", series[1])
	}
	// Per-window counts must sum to the size totals.
	var sum Counts
	for _, c := range series {
		sum.Add(c)
	}
	if sum != report.BySize["always"][7] {
		t.Fatalf("over-time sum %+v != total %+v", sum, report.BySize["always"][7])
	}
}

func TestEvaluateOverlap(t *testing.T) {
	hs, steady, _ := twoFieldSet(t)
	split := timeline.NewSpan(0, 10)
	onlySteady := predict.Func{PredictorName: "steady-only", Fn: func(b predict.Batch, _ int) bool {
		return b.Target() == steady
	}}
	always := predict.Func{PredictorName: "always", Fn: func(predict.Batch, int) bool { return true }}
	report, err := Evaluate(hs, split, []predict.Predictor{onlySteady, always},
		Options{Sizes: []int{1}, OverlapPairs: [][2]int{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	oc := report.Overlaps[OverlapKey("steady-only", "always", 1)]
	// steady-only predicts 10 windows (all for steady), always predicts 20.
	if oc.Both != 10 || oc.OnlyA != 0 || oc.OnlyB != 10 {
		t.Fatalf("overlap = %+v", oc)
	}
	if oc.FractionA() != 1.0 || oc.FractionB() != 0.5 {
		t.Fatalf("fractions = %v, %v", oc.FractionA(), oc.FractionB())
	}
}

func TestEvaluateLeakageDiscipline(t *testing.T) {
	// A cheating predictor that tries to read the target's change inside
	// the window through the batch must see nothing.
	hs, steady, _ := twoFieldSet(t)
	split := timeline.NewSpan(10, 20)
	cheat := predict.Func{PredictorName: "cheat", Fn: func(b predict.Batch, i int) bool {
		days := b.TargetDaysBefore(i)
		return b.FieldChanged(b.Target())[i] || len(days) > 0 && days[len(days)-1] >= b.Window(i).Start
	}}
	report, err := Evaluate(hs, split, []predict.Predictor{cheat}, Options{Sizes: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	c := report.BySize["cheat"][1]
	if c.TP != 0 || c.FP != 0 {
		t.Fatalf("cheating predictor produced predictions: %+v", c)
	}
	_ = steady
}

func TestEvaluateValidation(t *testing.T) {
	hs, _, _ := twoFieldSet(t)
	p := predict.Func{PredictorName: "p", Fn: func(predict.Batch, int) bool { return false }}
	if _, err := Evaluate(hs, timeline.NewSpan(0, 10), nil, Options{}); err == nil {
		t.Error("no predictors accepted")
	}
	if _, err := Evaluate(hs, timeline.NewSpan(0, 10), []predict.Predictor{p}, Options{Sizes: []int{0}}); err == nil {
		t.Error("zero window size accepted")
	}
	if _, err := Evaluate(hs, timeline.NewSpan(0, 3), []predict.Predictor{p}, Options{Sizes: []int{7}}); err == nil {
		t.Error("split shorter than window accepted")
	}
	if _, err := Evaluate(hs, timeline.NewSpan(0, 10), []predict.Predictor{p},
		Options{Sizes: []int{1}, OverlapPairs: [][2]int{{0, 5}}}); err == nil {
		t.Error("out-of-range overlap pair accepted")
	}
	if _, err := Evaluate(hs, timeline.NewSpan(0, 10), []predict.Predictor{p, p}, Options{Sizes: []int{1}}); err == nil {
		t.Error("duplicate predictor names accepted")
	}
}

// evaluateAtProcs runs Evaluate with GOMAXPROCS set to procs, which sizes
// the goroutine budget of its parallel loops.
func evaluateAtProcs(procs int, observed *changecube.HistorySet, split timeline.Span,
	predictors []predict.Predictor, opts Options) (*Report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return Evaluate(observed, split, predictors, opts)
}

func TestEvaluateParallelDeterministic(t *testing.T) {
	hs, _, _ := twoFieldSet(t)
	split := timeline.NewSpan(0, 50)
	always := predict.Func{PredictorName: "always", Fn: func(predict.Batch, int) bool { return true }}
	seq, err := evaluateAtProcs(1, hs, split, []predict.Predictor{always}, Options{Sizes: []int{1, 7}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := evaluateAtProcs(8, hs, split, []predict.Predictor{always}, Options{Sizes: []int{1, 7}})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 7} {
		if seq.BySize["always"][size] != par.BySize["always"][size] {
			t.Fatalf("size %d: sequential %+v != parallel %+v",
				size, seq.BySize["always"][size], par.BySize["always"][size])
		}
	}
}

func TestPaperWindowArithmetic(t *testing.T) {
	// A 365-day split must produce 430 predictions per field across the
	// four standard sizes.
	hs, _, _ := twoFieldSet(t)
	split := timeline.NewSpan(0, 365)
	always := predict.Func{PredictorName: "always", Fn: func(predict.Batch, int) bool { return true }}
	report, err := Evaluate(hs, split, []predict.Predictor{always}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, size := range timeline.StandardSizes {
		c := report.BySize["always"][size]
		total += c.TP + c.FP + c.FN + c.TN
	}
	if total != 430*2 {
		t.Fatalf("decisions = %d, want 860 (430 per field)", total)
	}
}

func TestEvaluateByTemplate(t *testing.T) {
	// Two templates: "active" fields change daily, "quiet" weekly.
	c := changecube.New()
	ea := c.AddEntityNamed("infobox active", "A")
	eq := c.AddEntityNamed("infobox quiet", "Q")
	prop := changecube.PropertyID(c.Properties.Intern("x"))
	var daily, weekly []timeline.Day
	for d := timeline.Day(0); d < 50; d++ {
		daily = append(daily, d)
		if d%7 == 0 {
			weekly = append(weekly, d)
		}
	}
	hs, err := changecube.NewHistorySet(c, []changecube.History{
		changecube.NewHistory(changecube.FieldKey{Entity: ea, Property: prop}, daily),
		changecube.NewHistory(changecube.FieldKey{Entity: eq, Property: prop}, weekly),
	})
	if err != nil {
		t.Fatal(err)
	}
	always := predict.Func{PredictorName: "always", Fn: func(predict.Batch, int) bool { return true }}
	report, err := Evaluate(hs, timeline.NewSpan(0, 28), []predict.Predictor{always},
		Options{Sizes: []int{1}, ByTemplateSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	activeID, _ := c.Templates.Lookup("infobox active")
	quietID, _ := c.Templates.Lookup("infobox quiet")
	perTemplate := report.ByTemplate["always"]
	active := perTemplate[changecube.TemplateID(activeID)]
	quiet := perTemplate[changecube.TemplateID(quietID)]
	if active.TP != 28 || active.FP != 0 {
		t.Fatalf("active template counts = %+v", active)
	}
	if quiet.TP != 4 || quiet.FP != 24 {
		t.Fatalf("quiet template counts = %+v", quiet)
	}
	// Per-template counts must sum to the size totals.
	var sum Counts
	for _, c := range perTemplate {
		sum.Add(c)
	}
	if sum != report.BySize["always"][1] {
		t.Fatalf("per-template sum %+v != total %+v", sum, report.BySize["always"][1])
	}
}
