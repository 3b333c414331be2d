package correlation

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

func hist(days ...timeline.Day) changecube.History {
	return changecube.NewHistory(changecube.FieldKey{}, days)
}

func TestDistanceEndpoints(t *testing.T) {
	span := timeline.NewSpan(0, 100)
	identical := hist(1, 5, 9)
	disjoint := hist(2, 6, 10)
	if d := Distance(identical, identical, span, NormOverlap); d != 0 {
		t.Fatalf("identical distance = %v, want 0", d)
	}
	if d := Distance(identical, disjoint, span, NormOverlap); d != 1 {
		t.Fatalf("disjoint distance = %v, want 1", d)
	}
}

func TestDistancePartialOverlap(t *testing.T) {
	span := timeline.NewSpan(0, 100)
	a := hist(1, 2, 3, 4)
	b := hist(3, 4, 5, 6)
	// Symmetric difference {1,2,5,6} = 4, total mass 8 -> 0.5.
	if d := Distance(a, b, span, NormOverlap); d != 0.5 {
		t.Fatalf("distance = %v, want 0.5", d)
	}
	// Length norm: 4 / 100.
	if d := Distance(a, b, span, NormLength); d != 0.04 {
		t.Fatalf("length-normalized distance = %v, want 0.04", d)
	}
}

func TestDistanceRestrictedToSpan(t *testing.T) {
	// Days outside the training span are invisible.
	a := hist(1, 2, 50)
	b := hist(1, 2, 60)
	if d := Distance(a, b, timeline.NewSpan(0, 10), NormOverlap); d != 0 {
		t.Fatalf("distance = %v, want 0 within span [0,10)", d)
	}
}

func TestDistanceEmptySpanAndHistories(t *testing.T) {
	if d := Distance(hist(), hist(), timeline.NewSpan(0, 10), NormOverlap); d != 1 {
		t.Fatalf("no-evidence distance = %v, want 1", d)
	}
	if d := Distance(hist(1), hist(1), timeline.Span{}, NormLength); d != 1 {
		t.Fatalf("zero-length span distance = %v, want 1", d)
	}
}

// TestDistanceMetricProperties checks range, symmetry and identity on
// random histories.
func TestDistanceMetricProperties(t *testing.T) {
	mk := func(raw []uint8) changecube.History {
		set := map[timeline.Day]bool{}
		for _, r := range raw {
			set[timeline.Day(r%100)] = true
		}
		days := make([]timeline.Day, 0, len(set))
		for d := range set {
			days = append(days, d)
		}
		sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
		return changecube.NewHistory(changecube.FieldKey{}, days)
	}
	span := timeline.NewSpan(0, 100)
	f := func(ra, rb []uint8) bool {
		a, b := mk(ra), mk(rb)
		for _, norm := range []Norm{NormOverlap, NormLength} {
			dab := Distance(a, b, span, norm)
			dba := Distance(b, a, span, norm)
			if dab != dba {
				return false
			}
			if dab < 0 || dab > 1 {
				return false
			}
		}
		if a.Len() > 0 && Distance(a, a, span, NormOverlap) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// corpus builds a page with a perfectly correlated pair (home/away colors),
// a noisy pair, and an unrelated field, plus a second page whose field
// changes on the same days as the colors (must NOT correlate across pages).
func corpus(t *testing.T) (*changecube.HistorySet, map[string]changecube.FieldKey) {
	t.Helper()
	c := changecube.New()
	club := c.AddEntityNamed("infobox club", "FC Example")
	other := c.AddEntityNamed("infobox club", "FC Other")
	prop := func(name string) changecube.PropertyID {
		return changecube.PropertyID(c.Properties.Intern(name))
	}
	fields := map[string]changecube.FieldKey{
		"home":    {Entity: club, Property: prop("home_colors")},
		"away":    {Entity: club, Property: prop("away_colors")},
		"noisy":   {Entity: club, Property: prop("stadium")},
		"random":  {Entity: club, Property: prop("manager")},
		"foreign": {Entity: other, Property: prop("home_colors")},
	}
	colorDays := []timeline.Day{10, 375, 740, 1105, 1470}
	hs, err := changecube.NewHistorySet(c, []changecube.History{
		changecube.NewHistory(fields["home"], colorDays),
		changecube.NewHistory(fields["away"], colorDays),
		// noisy shares 4 of 5 days with home: sym diff 2, mass 10 -> 0.2.
		changecube.NewHistory(fields["noisy"], []timeline.Day{10, 375, 740, 1105, 1500}),
		changecube.NewHistory(fields["random"], []timeline.Day{3, 100, 200, 300, 400}),
		changecube.NewHistory(fields["foreign"], colorDays),
	})
	if err != nil {
		t.Fatal(err)
	}
	return hs, fields
}

func TestTrainFindsSamePageRulesOnly(t *testing.T) {
	hs, fields := corpus(t)
	span := timeline.NewSpan(0, 2000)
	p, err := Train(hs, span, Default())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Covers(fields["home"]) || !p.Covers(fields["away"]) {
		t.Fatal("perfect pair not discovered")
	}
	if got := p.Partners(fields["home"]); len(got) != 1 || got[0] != fields["away"] {
		t.Fatalf("home partners = %v", got)
	}
	if p.Covers(fields["foreign"]) {
		t.Fatal("cross-page correlation discovered")
	}
	if p.Covers(fields["noisy"]) {
		t.Fatal("noisy pair (distance 0.2) passed θ=0.1")
	}
	if p.NumRules() != 1 {
		t.Fatalf("rules = %v", p.Rules())
	}
}

func TestTrainLooserThetaAdmitsNoisyPair(t *testing.T) {
	hs, fields := corpus(t)
	span := timeline.NewSpan(0, 2000)
	p, err := Train(hs, span, Config{Theta: 0.25, Norm: NormOverlap})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Covers(fields["noisy"]) {
		t.Fatal("noisy pair should pass θ=0.25")
	}
	// random shares no days with the colors: distance 1, never a rule.
	if p.Covers(fields["random"]) {
		partners := p.Partners(fields["random"])
		t.Fatalf("random field correlated with %v", partners)
	}
}

func TestTrainRejectsBadTheta(t *testing.T) {
	hs, _ := corpus(t)
	for _, theta := range []float64{0, -0.5, 1.5} {
		if _, err := Train(hs, timeline.NewSpan(0, 10), Config{Theta: theta}); err == nil {
			t.Errorf("theta %v accepted", theta)
		}
	}
}

func TestMaxFieldsPerPageSkipsLargePages(t *testing.T) {
	hs, fields := corpus(t)
	p, err := Train(hs, timeline.NewSpan(0, 2000), Config{Theta: 0.1, MaxFieldsPerPage: 2})
	if err != nil {
		t.Fatal(err)
	}
	// FC Example has 4 fields > 2, so no rules survive from it.
	if p.Covers(fields["home"]) {
		t.Fatal("large page not skipped")
	}
}

// fires asks p the one-window question: should target have changed in
// span?
func fires(p predict.Predictor, hs *changecube.HistorySet, target changecube.FieldKey, span timeline.Span) bool {
	verdict := make([]bool, 1)
	p.PredictWindows(predict.OneWindow(hs, target, span), verdict)
	return verdict[0]
}

func TestPredictFiresOnPartnerChange(t *testing.T) {
	hs, fields := corpus(t)
	span := timeline.NewSpan(0, 2000)
	p, err := Train(hs, span, Default())
	if err != nil {
		t.Fatal(err)
	}
	// Window containing away's change at day 740. Target home: the partner
	// changed -> prediction fires.
	w := timeline.NewSpan(738, 745)
	var fired []FiredRule
	verdict := make([]bool, 1)
	p.Evidence(predict.OneWindow(hs, fields["home"], w), verdict, func(r FiredRule) { fired = append(fired, r) })
	if !verdict[0] {
		t.Fatal("prediction missed partner change")
	}
	if len(fired) != 1 || fired[0].Partner != fields["away"] {
		t.Fatalf("Evidence = %v", fired)
	}
	// Quiet window: no partner change, no prediction.
	if fires(p, hs, fields["home"], timeline.NewSpan(100, 107)) {
		t.Fatal("prediction fired in quiet window")
	}
	// Uncovered field never predicts.
	if fires(p, hs, fields["random"], w) {
		t.Fatal("uncovered field predicted")
	}
}

func TestPredictDoesNotSeeTargetOwnChange(t *testing.T) {
	// Both fields change at day 740; for target home the partner (away) is
	// the evidence, not home's own hidden change — and for a field whose
	// only evidence is itself, no prediction may fire.
	hs, fields := corpus(t)
	p, err := Train(hs, timeline.NewSpan(0, 2000), Default())
	if err != nil {
		t.Fatal(err)
	}
	if !fires(p, hs, fields["away"], timeline.NewSpan(738, 745)) {
		t.Fatal("away should be predicted via home")
	}
}

// TestRulesSymmetricCoverage: every rule covers both of its fields.
func TestRulesSymmetricCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := changecube.New()
	e := c.AddEntityNamed("t", "page")
	var hsHist []changecube.History
	for i := 0; i < 12; i++ {
		prop := changecube.PropertyID(c.Properties.Intern(propName(i)))
		days := map[timeline.Day]bool{}
		for rng.Intn(10) > 0 && len(days) < 15 {
			days[timeline.Day(rng.Intn(200))] = true
		}
		if len(days) == 0 {
			days[timeline.Day(rng.Intn(200))] = true
		}
		var list []timeline.Day
		for d := range days {
			list = append(list, d)
		}
		sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
		hsHist = append(hsHist, changecube.NewHistory(
			changecube.FieldKey{Entity: e, Property: prop}, list))
	}
	hs, err := changecube.NewHistorySet(c, hsHist)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Train(hs, timeline.NewSpan(0, 200), Config{Theta: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.Rules() {
		if !p.Covers(r.A) || !p.Covers(r.B) {
			t.Fatalf("rule %v does not cover both fields", r)
		}
		if r.Distance >= 0.4 {
			t.Fatalf("rule %v exceeds theta", r)
		}
		if r.A == r.B {
			t.Fatalf("self-rule %v", r)
		}
	}
}

func propName(i int) string { return string(rune('a' + i)) }

func TestNormString(t *testing.T) {
	if NormOverlap.String() != "overlap" || NormLength.String() != "length" {
		t.Fatal("norm names wrong")
	}
	if Norm(9).String() == "" {
		t.Fatal("unknown norm name empty")
	}
}

func TestName(t *testing.T) {
	p := &Predictor{}
	if p.Name() != "field correlations" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestDistanceTolerant(t *testing.T) {
	span := timeline.NewSpan(0, 100)
	a := hist(10, 20, 30)
	b := hist(11, 22, 30)
	// Same-day: only day 30 matches -> sym diff 4 of mass 6.
	if d := Distance(a, b, span, NormOverlap); d != 4.0/6.0 {
		t.Fatalf("same-day distance = %v", d)
	}
	// ±1 day: 10~11 and 30 match -> sym diff 2 of 6.
	if d := DistanceTolerant(a, b, span, NormOverlap, 1); d != 2.0/6.0 {
		t.Fatalf("tolerance-1 distance = %v", d)
	}
	// ±2 days: all three match -> 0.
	if d := DistanceTolerant(a, b, span, NormOverlap, 2); d != 0 {
		t.Fatalf("tolerance-2 distance = %v", d)
	}
}

func TestMatchCountGreedyIsMaximal(t *testing.T) {
	// a=10 could greedily grab b=12 and starve a=13; the two-pointer
	// approach must still find the maximum matching of size 2.
	a := []timeline.Day{10, 13}
	b := []timeline.Day{12, 14}
	if got := matchCount(a, b, 2); got != 2 {
		t.Fatalf("matchCount = %d, want 2", got)
	}
	if got := matchCount(a, b, 0); got != 0 {
		t.Fatalf("matchCount tol=0 = %d, want 0", got)
	}
}

func TestMatchCountAgainstIntersection(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		mk := func(raw []uint8) []timeline.Day {
			set := map[timeline.Day]bool{}
			for _, r := range raw {
				set[timeline.Day(r)] = true
			}
			var days []timeline.Day
			for d := range set {
				days = append(days, d)
			}
			sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
			return days
		}
		a, b := mk(ra), mk(rb)
		// tol=0 must equal exact intersection size.
		inter := 0
		j := 0
		for _, d := range a {
			for j < len(b) && b[j] < d {
				j++
			}
			if j < len(b) && b[j] == d {
				inter++
			}
		}
		return matchCount(a, b, 0) == inter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainRejectsNegativeTolerance(t *testing.T) {
	hs, _ := corpus(t)
	cfg := Default()
	cfg.ToleranceDays = -1
	if _, err := Train(hs, timeline.NewSpan(0, 10), cfg); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

func TestToleranceDiscoverDelayedPair(t *testing.T) {
	// Two fields that always change one day apart: invisible at same-day
	// matching, perfectly correlated at ±1.
	c := changecube.New()
	e := c.AddEntityNamed("t", "page")
	pa := changecube.PropertyID(c.Properties.Intern("a"))
	pb := changecube.PropertyID(c.Properties.Intern("b"))
	fa := changecube.FieldKey{Entity: e, Property: pa}
	fb := changecube.FieldKey{Entity: e, Property: pb}
	hs, err := changecube.NewHistorySet(c, []changecube.History{
		changecube.NewHistory(fa, []timeline.Day{10, 110, 210, 310, 410}),
		changecube.NewHistory(fb, []timeline.Day{11, 111, 211, 311, 411}),
	})
	if err != nil {
		t.Fatal(err)
	}
	span := timeline.NewSpan(0, 500)
	sameDay, err := Train(hs, span, Default())
	if err != nil {
		t.Fatal(err)
	}
	if sameDay.Covers(fa) {
		t.Fatal("delayed pair discovered at same-day matching")
	}
	cfg := Default()
	cfg.ToleranceDays = 1
	tolerant, err := Train(hs, span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tolerant.Covers(fa) || !tolerant.Covers(fb) {
		t.Fatal("delayed pair missed at tolerance 1")
	}
}
