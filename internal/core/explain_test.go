package core

import (
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// TestExplainMatchesDetectStale pins the audit-path invariant: Explain's
// verdict, evidence, and summary agree with DetectStale for every flagged
// field, Explain reports not-stale for unflagged fields, and every
// predictor's vote (the four Table-1 predictors plus both ensembles)
// matches its tumbling-window row.
func TestExplainMatchesDetectStale(t *testing.T) {
	det, _ := detector(t)
	asOf := det.Histories().Span().End

	totalAlerts := 0
	for _, window := range []int{7, 30, 365} {
		alerts := det.DetectStale(asOf, window)
		totalAlerts += len(alerts)
		flagged := make(map[changecube.FieldKey]bool, len(alerts))
		for _, a := range alerts {
			flagged[a.Field] = true
		}

		for _, a := range alerts {
			ex := det.Explain(a.Field, asOf, window)
			if !ex.Stale {
				t.Fatalf("window %d: DetectStale flagged %v but Explain says not stale", window, a.Field)
			}
			if ex.ChangedInWindow {
				t.Fatalf("window %d: flagged field %v explained as changed in window", window, a.Field)
			}
			if len(ex.Correlations) == 0 && len(ex.Rules) == 0 {
				t.Fatalf("window %d: flagged field %v has an empty explanation", window, a.Field)
			}
			if ex.Summary != a.Explanation {
				t.Fatalf("window %d: field %v summary %q != alert explanation %q",
					window, a.Field, ex.Summary, a.Explanation)
			}
			if got, want := len(ex.Correlations) > 0, containsStr(a.Sources, det.fieldCorr.Name()); got != want {
				t.Fatalf("window %d: field %v correlation evidence=%v but sources=%v",
					window, a.Field, got, a.Sources)
			}
			if got, want := len(ex.Rules) > 0, containsStr(a.Sources, det.assocRules.Name()); got != want {
				t.Fatalf("window %d: field %v rule evidence=%v but sources=%v",
					window, a.Field, got, a.Sources)
			}
			checkVotes(t, det, a.Field, asOf, window, ex)
		}

		// Unflagged fields must explain as not stale: either they changed
		// in the window or no evidence fired.
		checked := 0
		for _, h := range det.Histories().Histories() {
			if flagged[h.Field] {
				continue
			}
			ex := det.Explain(h.Field, asOf, window)
			if ex.Stale {
				t.Fatalf("window %d: Explain says %v is stale but DetectStale did not flag it",
					window, h.Field)
			}
			if !ex.ChangedInWindow && (len(ex.Correlations) > 0 || len(ex.Rules) > 0) {
				t.Fatalf("window %d: unflagged unchanged field %v has fired evidence", window, h.Field)
			}
			if checked++; checked >= 250 {
				break
			}
		}
	}
	if totalAlerts == 0 {
		t.Fatal("no stale alerts across any window; the consistency check never exercised evidence")
	}
}

// checkVotes asserts the Votes slice mirrors Predictors() order and each
// predictor's verdict on the same (field, window) asked as the last of
// three tumbling windows ending at asOf.
func checkVotes(t *testing.T, det *Detector, field changecube.FieldKey, asOf timeline.Day, window int, ex Explanation) {
	t.Helper()
	split := timeline.NewSpan(asOf-3*timeline.Day(window), asOf)
	b := predict.NewWindowSet(det.Histories(), split, window, nil).For(field)
	row := make([]bool, b.NumWindows())
	preds := det.Predictors()
	if len(ex.Votes) != len(preds) {
		t.Fatalf("field %v: %d votes, want %d", field, len(ex.Votes), len(preds))
	}
	for i, p := range preds {
		if ex.Votes[i].Predictor != p.Name() {
			t.Fatalf("field %v vote %d: predictor %q, want %q", field, i, ex.Votes[i].Predictor, p.Name())
		}
		p.PredictWindows(b, row)
		if ex.Votes[i].Fired != row[2] {
			t.Fatalf("field %v: vote for %q = %v disagrees with the tumbling-window row", field, p.Name(), ex.Votes[i].Fired)
		}
	}
}
