package familycorr

import (
	"fmt"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// seasonSeries builds a league with one page per season. Each season's
// roster and standings co-change ~6 times within its year; a noise
// property changes on unrelated days. A second, unrelated league family
// exists to ensure rules do not leak across families.
func seasonSeries(t *testing.T, years int) (*changecube.HistorySet, *changecube.Cube, []changecube.EntityID, map[string]changecube.PropertyID) {
	t.Helper()
	cube := changecube.New()
	props := map[string]changecube.PropertyID{
		"roster":    changecube.PropertyID(cube.Properties.Intern("roster")),
		"standings": changecube.PropertyID(cube.Properties.Intern("standings")),
		"noise":     changecube.PropertyID(cube.Properties.Intern("attendance")),
	}
	var histories []changecube.History
	var entities []changecube.EntityID
	addSeason := func(league string, year int) changecube.EntityID {
		page := fmt.Sprintf("%d-%02d %s", 2010+year, (10+year+1)%100, league)
		e := cube.AddEntityNamed("infobox season", page)
		entities = append(entities, e)
		base := timeline.Day(year * 365)
		var shared, noise []timeline.Day
		for g := 0; g < 6; g++ {
			shared = append(shared, base+timeline.Day(30+g*40))
			noise = append(noise, base+timeline.Day(45+g*40))
		}
		histories = append(histories,
			changecube.NewHistory(changecube.FieldKey{Entity: e, Property: props["roster"]}, shared),
			changecube.NewHistory(changecube.FieldKey{Entity: e, Property: props["standings"]}, shared),
			changecube.NewHistory(changecube.FieldKey{Entity: e, Property: props["noise"]}, noise),
		)
		return e
	}
	for year := 0; year < years; year++ {
		addSeason("Handball-Bundesliga", year)
		addSeason("Eredivisie", year)
	}
	hs, err := changecube.NewHistorySet(cube, histories)
	if err != nil {
		t.Fatal(err)
	}
	return hs, cube, entities, props
}

func TestTrainFindsFamilyRules(t *testing.T) {
	hs, _, _, props := seasonSeries(t, 4)
	p, err := Train(hs, hs.Span(), Default())
	if err != nil {
		t.Fatal(err)
	}
	if p.Families() != 2 {
		t.Fatalf("families = %d, want 2", p.Families())
	}
	// One roster~standings rule per family; noise must stay out.
	if p.NumRules() != 2 {
		t.Fatalf("rules = %+v", p.Rules())
	}
	for _, r := range p.Rules() {
		pair := map[changecube.PropertyID]bool{r.A: true, r.B: true}
		if !pair[props["roster"]] || !pair[props["standings"]] {
			t.Fatalf("unexpected rule %+v", r)
		}
		if r.Distance != 0 {
			t.Fatalf("distance = %v, want 0 (perfect co-change)", r.Distance)
		}
	}
}

func TestRuleTransfersToNewSeasonPage(t *testing.T) {
	// Train on 4 past seasons, then a 5th season page appears: the rule
	// must fire for it even though the page never existed in training —
	// the headline property of the extension.
	hs, cube, _, props := seasonSeries(t, 4)
	p, err := Train(hs, hs.Span(), Default())
	if err != nil {
		t.Fatal(err)
	}
	fresh := cube.AddEntityNamed("infobox season", "2014-15 Handball-Bundesliga")
	day := timeline.Day(4*365 + 100)
	histories := append(hs.Histories(),
		changecube.NewHistory(changecube.FieldKey{Entity: fresh, Property: props["roster"]},
			[]timeline.Day{day}),
		changecube.NewHistory(changecube.FieldKey{Entity: fresh, Property: props["standings"]},
			[]timeline.Day{day - 40}), // last updated a game ago
	)
	observed, err := changecube.NewHistorySet(cube, histories)
	if err != nil {
		t.Fatal(err)
	}
	w := timeline.NewSpan(day-1, day+2)
	target := changecube.FieldKey{Entity: fresh, Property: props["standings"]}
	var fired []changecube.PropertyID
	verdict := make([]bool, 1)
	p.Evidence(predict.OneWindow(observed, target, w), verdict, func(prop changecube.PropertyID) { fired = append(fired, prop) })
	if !verdict[0] {
		t.Fatal("family rule did not transfer to the new season page")
	}
	if len(fired) != 1 || fired[0] != props["roster"] {
		t.Fatalf("Evidence = %v", fired)
	}
	// An unrelated property on the fresh page stays silent.
	noiseTarget := changecube.FieldKey{Entity: fresh, Property: props["noise"]}
	p.PredictWindows(predict.OneWindow(observed, noiseTarget, w), verdict)
	if verdict[0] {
		t.Fatal("noise property predicted")
	}
}

func TestNoCrossFamilyLeakage(t *testing.T) {
	hs, _, entities, props := seasonSeries(t, 4)
	p, err := Train(hs, hs.Span(), Default())
	if err != nil {
		t.Fatal(err)
	}
	// Eredivisie season 0 is entities[1]; its standings change on the same
	// absolute days as Handball's — but evidence must come from its own
	// family only. Quiet Eredivisie window while Handball changed:
	// impossible here since both share days, so instead check rule scoping
	// directly: the partner sets are per (family, property).
	handball := changecube.FieldKey{Entity: entities[0], Property: props["standings"]}
	verdict := make([]bool, 1)
	p.PredictWindows(predict.OneWindow(hs, handball, timeline.NewSpan(29, 32)), verdict)
	if !verdict[0] {
		t.Fatal("in-family prediction missing")
	}
}

func TestSingleMemberFamiliesSkipped(t *testing.T) {
	cube := changecube.New()
	prop := changecube.PropertyID(cube.Properties.Intern("x"))
	prop2 := changecube.PropertyID(cube.Properties.Intern("y"))
	e := cube.AddEntityNamed("t", "London") // no year tokens: family of one
	days := []timeline.Day{1, 2, 3, 4, 5}
	hs, err := changecube.NewHistorySet(cube, []changecube.History{
		changecube.NewHistory(changecube.FieldKey{Entity: e, Property: prop}, days),
		changecube.NewHistory(changecube.FieldKey{Entity: e, Property: prop2}, days),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Train(hs, hs.Span(), Default())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRules() != 0 || p.Families() != 0 {
		t.Fatalf("single-member family produced rules: %+v", p.Rules())
	}
}

func TestMinPooledChanges(t *testing.T) {
	// Two seasons with only 2 shared change days each: pooled 4 < 5.
	cube := changecube.New()
	a := changecube.PropertyID(cube.Properties.Intern("a"))
	b := changecube.PropertyID(cube.Properties.Intern("b"))
	var histories []changecube.History
	for year := 0; year < 2; year++ {
		e := cube.AddEntityNamed("t", fmt.Sprintf("%d Cup", 2010+year))
		days := []timeline.Day{timeline.Day(year*365 + 10), timeline.Day(year*365 + 50)}
		histories = append(histories,
			changecube.NewHistory(changecube.FieldKey{Entity: e, Property: a}, days),
			changecube.NewHistory(changecube.FieldKey{Entity: e, Property: b}, days),
		)
	}
	hs, err := changecube.NewHistorySet(cube, histories)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Train(hs, hs.Span(), Default())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRules() != 0 {
		t.Fatalf("under-supported family rule mined: %+v", p.Rules())
	}
	// Lowering the bar admits it.
	cfg := Default()
	cfg.MinPooledChanges = 3
	p2, err := Train(hs, hs.Span(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p2.NumRules() != 1 {
		t.Fatalf("rules = %+v", p2.Rules())
	}
}

func TestConfigValidation(t *testing.T) {
	hs, _, _, _ := seasonSeries(t, 2)
	bad := []Config{
		{Correlation: Default().Correlation, MinMembers: 1, MinPooledChanges: 5},
		{Correlation: Default().Correlation, MinMembers: 2, MinPooledChanges: 0},
	}
	for i, cfg := range bad {
		if _, err := Train(hs, hs.Span(), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	zeroTheta := Default()
	zeroTheta.Correlation.Theta = 0
	if _, err := Train(hs, hs.Span(), zeroTheta); err == nil {
		t.Error("zero theta accepted")
	}
}

func TestName(t *testing.T) {
	if (&Predictor{}).Name() != "family correlations" {
		t.Fatal("name wrong")
	}
}
