// Soccerseasons demonstrates the template-level association-rule predictor
// on the scenario from the paper's introduction and §5.4: for football
// league seasons, a change to matches_played should entail a change to
// goals_scored — but not the other way round. The example hand-builds the
// change histories of several league seasons, trains the rule miner, shows
// the asymmetry of the mined rules, and catches a season page where the
// editor kept updating matches but forgot the goals.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/wikistale/wikistale/internal/assocrules"
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

func main() {
	log.SetFlags(0)
	rng := rand.New(rand.NewSource(42))

	cube := changecube.New()
	matches := changecube.PropertyID(cube.Properties.Intern("matches_played"))
	goals := changecube.PropertyID(cube.Properties.Intern("goals_scored"))

	// Twenty seasons of assorted leagues. Match rounds come every two
	// weeks; the goals tally is updated with each round and then corrected
	// twice more in the quiet days after (fans fixing the arithmetic), so
	// the relationship is asymmetric: matches ⇒ goals, but goals change in
	// plenty of weeks without a match.
	var histories []changecube.History
	start := timeline.Date(2015, 8, 1)
	for season := 0; season < 20; season++ {
		entity := cube.AddEntityNamed("infobox football league season",
			fmt.Sprintf("%d-%02d Example League", 2015+season/4, 16+season/4))
		var matchDays, goalDays []timeline.Day
		d := start + timeline.Day(season*30)
		for game := 0; game < 40; game++ {
			matchDays = append(matchDays, d)
			goalDays = append(goalDays, d, d+6, d+10) // tally corrections trail the round
			d += timeline.Day(13 + rng.Intn(3))
		}
		histories = append(histories,
			changecube.NewHistory(changecube.FieldKey{Entity: entity, Property: matches}, dedup(matchDays)),
			changecube.NewHistory(changecube.FieldKey{Entity: entity, Property: goals}, dedup(goalDays)),
		)
	}
	hs, err := changecube.NewHistorySet(cube, histories)
	if err != nil {
		log.Fatal(err)
	}

	predictor, err := assocrules.Train(hs, hs.Span(), assocrules.Default())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined %d validated association rules:\n", predictor.NumRules())
	for _, r := range predictor.Rules() {
		fmt.Printf("  %s -> %s  (confidence %.2f, validation precision %.2f)\n",
			cube.Properties.Name(int32(r.Antecedent)),
			cube.Properties.Name(int32(r.Consequent)),
			r.Confidence, r.ValidationPrecision)
	}

	// A fresh season, never seen during training: the template rule still
	// applies. The editor updates matches on a new match day but forgets
	// the goals.
	fresh := cube.AddEntityNamed("infobox football league season", "2018-19 Handball-Bundesliga")
	matchDay := hs.Span().End + 10
	histories = append(hs.Histories(),
		changecube.NewHistory(changecube.FieldKey{Entity: fresh, Property: matches},
			[]timeline.Day{matchDay - 20, matchDay - 10, matchDay}),
		changecube.NewHistory(changecube.FieldKey{Entity: fresh, Property: goals},
			[]timeline.Day{matchDay - 20, matchDay - 10}), // missing the last update!
	)
	observed, err := changecube.NewHistorySet(cube, histories)
	if err != nil {
		log.Fatal(err)
	}

	window := timeline.Window{Span: timeline.NewSpan(matchDay-1, matchDay+2)}
	target := changecube.FieldKey{Entity: fresh, Property: goals}
	// One question, one window: the evidence kernel fills the verdict row
	// and reports every rule whose antecedent changed.
	var fired []assocrules.Rule
	verdict := make([]bool, 1)
	predictor.Evidence(predict.OneWindow(observed, target, window.Span), verdict,
		func(r assocrules.Rule) { fired = append(fired, r) })
	if verdict[0] {
		fmt.Printf("\n%q: goals_scored should have changed in %v\n",
			"2018-19 Handball-Bundesliga", window.Span)
		for _, r := range fired {
			fmt.Printf("  evidence: %s changed in the same window\n",
				cube.Properties.Name(int32(r.Antecedent)))
		}
		fmt.Println("  -> the goals tally is likely STALE; flag it for editors")
	} else {
		fmt.Println("no staleness detected (unexpected)")
	}

	// The reverse question: matches on a day when only goals were
	// corrected. The asymmetric rule must stay silent.
	solo := timeline.Window{Span: timeline.NewSpan(matchDay+5, matchDay+8)}
	rev := predict.OneWindow(observed, changecube.FieldKey{Entity: fresh, Property: matches}, solo.Span)
	predictor.PredictWindows(rev, verdict)
	fmt.Printf("\nreverse direction fires: %v (should be false — goals do not imply matches)\n",
		verdict[0])
}

func dedup(days []timeline.Day) []timeline.Day {
	out := days[:0]
	for i, d := range days {
		if i == 0 || d > out[len(out)-1] {
			out = append(out, d)
		}
	}
	return out
}
