package assocrules

import (
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// leagueCorpus builds the paper's running example: a "football league
// season" template where every change to matches is accompanied by a
// change to total_goals in the same week, while total_goals also changes
// on its own — an asymmetric implication that only the rule matches →
// total_goals should capture. A second noisy pair (attendance → stadium)
// co-changes during the mining slice but decouples in the validation
// slice, so rule validation must discard it.
func leagueCorpus(t *testing.T, nEntities int) (*changecube.HistorySet, timeline.Span, map[string]changecube.PropertyID) {
	t.Helper()
	c := changecube.New()
	props := map[string]changecube.PropertyID{}
	for _, name := range []string{"matches", "total_goals", "attendance", "stadium"} {
		props[name] = changecube.PropertyID(c.Properties.Intern(name))
	}
	span := timeline.NewSpan(0, 700) // 100 weeks; validation = last 70 days
	var histories []changecube.History
	for i := 0; i < nEntities; i++ {
		e := c.AddEntityNamed("infobox football league season", pageName(i))
		var matches, goals, att, stadium []timeline.Day
		for week := 0; week < 100; week++ {
			day := timeline.Day(week*7 + 1)
			switch {
			case week%4 == 0:
				// Match weeks: matches and goals change together.
				matches = append(matches, day)
				goals = append(goals, day)
			case week%2 == 1:
				// Odd weeks: goals change alone (corrections etc.), so the
				// reverse rule goals -> matches has confidence 25/75 = 1/3.
				goals = append(goals, day)
			default:
				// Weeks ≡ 2 mod 4: attendance+stadium co-change during
				// mining; in the validation slice (weeks 90+) attendance
				// changes alone.
				att = append(att, day+1)
				if week < 90 {
					stadium = append(stadium, day+1)
				}
			}
		}
		histories = append(histories,
			changecube.NewHistory(changecube.FieldKey{Entity: e, Property: props["matches"]}, matches),
			changecube.NewHistory(changecube.FieldKey{Entity: e, Property: props["total_goals"]}, goals),
			changecube.NewHistory(changecube.FieldKey{Entity: e, Property: props["attendance"]}, att),
			changecube.NewHistory(changecube.FieldKey{Entity: e, Property: props["stadium"]}, stadium),
		)
	}
	hs, err := changecube.NewHistorySet(c, histories)
	if err != nil {
		t.Fatal(err)
	}
	return hs, span, props
}

func pageName(i int) string {
	return "Season " + string(rune('A'+i%26)) + string(rune('0'+i/26))
}

func findRule(rules []Rule, ante, cons changecube.PropertyID) (Rule, bool) {
	for _, r := range rules {
		if r.Antecedent == ante && r.Consequent == cons {
			return r, true
		}
	}
	return Rule{}, false
}

func TestTrainFindsAsymmetricRule(t *testing.T) {
	hs, span, props := leagueCorpus(t, 10)
	p, err := Train(hs, span, Default())
	if err != nil {
		t.Fatal(err)
	}
	r, ok := findRule(p.Rules(), props["matches"], props["total_goals"])
	if !ok {
		t.Fatalf("matches -> total_goals not mined; rules: %v", p.Rules())
	}
	if r.Confidence < 0.99 {
		t.Fatalf("confidence = %v, want ~1", r.Confidence)
	}
	if r.ValidationPrecision < 0.99 {
		t.Fatalf("validation precision = %v, want ~1", r.ValidationPrecision)
	}
	// The reverse direction has confidence 0.5 < 0.6 and must be absent.
	if _, ok := findRule(p.Rules(), props["total_goals"], props["matches"]); ok {
		t.Fatal("symmetric reverse rule mined despite low confidence")
	}
}

func TestValidationDiscardsDecoupledRule(t *testing.T) {
	// The corpus decouples attendance/stadium in the final 10% of the
	// span, so the temporal holdout must catch it.
	hs, span, props := leagueCorpus(t, 10)
	tailCfg := Default()
	tailCfg.ValidationScheme = HoldoutTail
	// The tail holdout is small here; without this the confidence
	// fallback would keep the decoupled rule.
	tailCfg.MinValidationFires = 1
	p, err := Train(hs, span, tailCfg)
	if err != nil {
		t.Fatal(err)
	}
	// attendance -> stadium holds on the mining slice (conf 1.0) but fails
	// on the validation slice (stadium stops changing).
	if _, ok := findRule(p.Rules(), props["attendance"], props["stadium"]); ok {
		t.Fatal("rule with zero validation precision kept")
	}
	// stadium -> attendance remains fine: whenever stadium changed,
	// attendance changed too. stadium never fires in the tail holdout, so
	// the rule is kept via the mining-confidence fallback, flagged as
	// unvalidated.
	r, ok := findRule(p.Rules(), props["stadium"], props["attendance"])
	if !ok {
		t.Fatal("confidence fallback dropped a perfect unvalidatable rule")
	}
	if r.Fires != 0 || r.ValidationPrecision != -1 {
		t.Fatalf("unvalidated rule not flagged: %+v", r)
	}
	cfg := tailCfg
	cfg.KeepUnvalidated = true
	p2, err := Train(hs, span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := findRule(p2.Rules(), props["stadium"], props["attendance"]); !ok || r.Fires != 0 {
		t.Fatalf("KeepUnvalidated did not keep the unfired rule: %v, ok=%v", r, ok)
	}
}

// fires asks p the one-window question: should target have changed in
// span?
func fires(p predict.Predictor, hs *changecube.HistorySet, target changecube.FieldKey, span timeline.Span) bool {
	verdict := make([]bool, 1)
	p.PredictWindows(predict.OneWindow(hs, target, span), verdict)
	return verdict[0]
}

func TestPredictViaRule(t *testing.T) {
	hs, span, props := leagueCorpus(t, 10)
	p, err := Train(hs, span, Default())
	if err != nil {
		t.Fatal(err)
	}
	// Week 96 ≡ 0 mod 4: matches changed on day 96*7+1 = 673. Predicting
	// total_goals in the window [672, 679) must fire via the rule.
	target := changecube.FieldKey{Entity: 0, Property: props["total_goals"]}
	w := timeline.NewSpan(672, 679)
	var fired []Rule
	verdict := make([]bool, 1)
	p.Evidence(predict.OneWindow(hs, target, w), verdict, func(r Rule) { fired = append(fired, r) })
	if !verdict[0] {
		t.Fatal("rule did not fire on antecedent change")
	}
	if len(fired) != 1 || fired[0].Antecedent != props["matches"] {
		t.Fatalf("Evidence = %v", fired)
	}
	// Week 97 is odd: goals change alone (hidden from the predictor as the
	// target) and no antecedent changed, so no prediction fires.
	if fires(p, hs, target, timeline.NewSpan(679, 686)) {
		t.Fatal("rule fired without antecedent change")
	}
	// matches itself is not a consequent of any rule: never predicted.
	tm := changecube.FieldKey{Entity: 0, Property: props["matches"]}
	if fires(p, hs, tm, w) {
		t.Fatal("prediction for a property with no rule")
	}
}

func TestRuleAppliesToUnseenEntityOfSameTemplate(t *testing.T) {
	hs, span, props := leagueCorpus(t, 10)
	p, err := Train(hs, span, Default())
	if err != nil {
		t.Fatal(err)
	}
	// A brand-new entity of the same template, absent from training:
	// template-level rules still apply. Build an observation set that
	// includes it.
	cube := hs.Cube()
	fresh := cube.AddEntityNamed("infobox football league season", "Season New")
	histories := append([]changecube.History{}, hs.Histories()...)
	histories = append(histories,
		changecube.NewHistory(changecube.FieldKey{Entity: fresh, Property: props["matches"]}, []timeline.Day{700}),
		changecube.NewHistory(changecube.FieldKey{Entity: fresh, Property: props["total_goals"]}, []timeline.Day{900}),
	)
	observed, err := changecube.NewHistorySet(cube, histories)
	if err != nil {
		t.Fatal(err)
	}
	target := changecube.FieldKey{Entity: fresh, Property: props["total_goals"]}
	if !fires(p, observed, target, timeline.NewSpan(698, 705)) {
		t.Fatal("template rule did not transfer to unseen entity")
	}
}

func TestBuildTransactions(t *testing.T) {
	hs, _, props := leagueCorpus(t, 2)
	span := timeline.NewSpan(0, 21) // weeks 0,1,2
	txns := BuildTransactions(hs, span, 7)
	if len(txns) != 1 {
		t.Fatalf("templates = %d, want 1", len(txns))
	}
	for _, ts := range txns {
		// 2 entities x 3 weeks, every (entity, week) has changes:
		// week 0 {matches, goals}, week 1 {goals}, week 2 {att, stadium}.
		if len(ts) != 6 {
			t.Fatalf("transactions = %d, want 6", len(ts))
		}
		singles, pairs := 0, 0
		for _, txn := range ts {
			switch len(txn) {
			case 1:
				singles++
			case 2:
				pairs++
			default:
				t.Fatalf("unexpected transaction size %d: %v", len(txn), txn)
			}
		}
		if singles != 2 || pairs != 4 {
			t.Fatalf("singles = %d pairs = %d, want 2 and 4", singles, pairs)
		}
	}
	_ = props
}

func TestBuildTransactionsDropsTrailingPartialPeriod(t *testing.T) {
	c := changecube.New()
	e := c.AddEntityNamed("t", "p")
	prop := changecube.PropertyID(c.Properties.Intern("x"))
	hs, err := changecube.NewHistorySet(c, []changecube.History{
		changecube.NewHistory(changecube.FieldKey{Entity: e, Property: prop}, []timeline.Day{1, 8, 15}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Span of 16 days = 2 full weeks + 2 days; the change on day 15 falls
	// into the partial third period and must be dropped.
	txns := BuildTransactions(hs, timeline.NewSpan(0, 16), 7)
	total := 0
	for _, ts := range txns {
		total += len(ts)
	}
	if total != 2 {
		t.Fatalf("transactions = %d, want 2 (partial period dropped)", total)
	}
}

func TestSupportScopeGlobal(t *testing.T) {
	hs, span, props := leagueCorpus(t, 10)
	cfg := Default()
	cfg.SupportScope = Global
	p, err := Train(hs, span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One template only: global and per-template coincide here.
	if _, ok := findRule(p.Rules(), props["matches"], props["total_goals"]); !ok {
		t.Fatal("global scope lost the rule on a single-template corpus")
	}
	for _, r := range p.Rules() {
		if r.Support <= 0 || r.Support > 1 {
			t.Fatalf("global support out of range: %v", r)
		}
	}
}

func TestRulesPerTemplateAndCoverage(t *testing.T) {
	hs, span, _ := leagueCorpus(t, 10)
	p, err := Train(hs, span, Default())
	if err != nil {
		t.Fatal(err)
	}
	per := p.RulesPerTemplate()
	if len(per) != 1 {
		t.Fatalf("templates with rules = %d", len(per))
	}
	for _, n := range per {
		if n != p.NumRules() {
			t.Fatalf("per-template count %d != total %d", n, p.NumRules())
		}
	}
	if got := p.CoveredPages(hs.Cube()); got != 10 {
		t.Fatalf("covered pages = %d, want 10", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{MinSupport: 0, MinConfidence: 0.5, ValidationFraction: 0.1, RulePrecisionCut: 0.9, PeriodDays: 7},
		{MinSupport: 0.1, MinConfidence: 1.5, ValidationFraction: 0.1, RulePrecisionCut: 0.9, PeriodDays: 7},
		{MinSupport: 0.1, MinConfidence: 0.5, ValidationFraction: 1, RulePrecisionCut: 0.9, PeriodDays: 7},
		{MinSupport: 0.1, MinConfidence: 0.5, ValidationFraction: 0.1, RulePrecisionCut: 2, PeriodDays: 7},
		{MinSupport: 0.1, MinConfidence: 0.5, ValidationFraction: 0.1, RulePrecisionCut: 0.9, PeriodDays: 0},
	}
	hs, span, _ := leagueCorpus(t, 2)
	for i, cfg := range bad {
		if _, err := Train(hs, span, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEmptyHistorySet(t *testing.T) {
	c := changecube.New()
	hs, err := changecube.NewHistorySet(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Train(hs, timeline.NewSpan(0, 100), Default())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRules() != 0 {
		t.Fatalf("rules from nothing: %v", p.Rules())
	}
}

func TestScopeString(t *testing.T) {
	if PerTemplate.String() != "per-template" || Global.String() != "global" {
		t.Fatal("scope names wrong")
	}
}

func TestName(t *testing.T) {
	if (&Predictor{}).Name() != "association rules" {
		t.Fatal("name wrong")
	}
}
