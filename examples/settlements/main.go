// Settlements demonstrates the page-level field-correlation predictor on
// the example from the paper's Figure 2: in settlement infoboxes, the
// population estimate and its as-of date change together. The example
// builds change histories for a set of city pages, trains the correlation
// search, and flags a city where the population was updated but the as-of
// date was forgotten — exactly the stale-data marker of Figure 1.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/correlation"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

func main() {
	log.SetFlags(0)
	rng := rand.New(rand.NewSource(7))

	cube := changecube.New()
	popEst := changecube.PropertyID(cube.Properties.Intern("population_est"))
	popAsOf := changecube.PropertyID(cube.Properties.Intern("pop_est_as_of"))
	mayor := changecube.PropertyID(cube.Properties.Intern("leader_name"))

	cities := []string{"London", "Paris", "Berlin", "Madrid", "Rome", "Vienna", "Prague", "Lisbon"}
	var histories []changecube.History
	var fields []struct{ est, asOf changecube.FieldKey }
	start := timeline.Date(2010, 1, 1)
	for _, city := range cities {
		e := cube.AddEntityNamed("infobox settlement", city)
		// A census-style update once a year: both fields change on the
		// same day. The mayor changes on unrelated election days.
		var estDays, asOfDays, mayorDays []timeline.Day
		for year := 0; year < 10; year++ {
			d := start + timeline.Day(year*365+rng.Intn(60))
			estDays = append(estDays, d)
			asOfDays = append(asOfDays, d)
			if year%4 == 1 {
				mayorDays = append(mayorDays, d+timeline.Day(100+rng.Intn(100)))
			}
		}
		est := changecube.FieldKey{Entity: e, Property: popEst}
		asOf := changecube.FieldKey{Entity: e, Property: popAsOf}
		histories = append(histories,
			changecube.NewHistory(est, estDays),
			changecube.NewHistory(asOf, asOfDays),
			changecube.NewHistory(changecube.FieldKey{Entity: e, Property: mayor}, mayorDays),
		)
		fields = append(fields, struct{ est, asOf changecube.FieldKey }{est, asOf})
	}
	hs, err := changecube.NewHistorySet(cube, histories)
	if err != nil {
		log.Fatal(err)
	}

	predictor, err := correlation.Train(hs, hs.Span(), correlation.Default())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered %d field-correlation rules (θ = 0.1):\n", predictor.NumRules())
	for _, r := range predictor.Rules() {
		fmt.Printf("  %s | %s ~ %s  (distance %.3f)\n",
			cube.Pages.Name(int32(cube.Page(r.A.Entity))),
			cube.Properties.Name(int32(r.A.Property)),
			cube.Properties.Name(int32(r.B.Property)),
			r.Distance)
	}

	// London's 2020 census lands: population_est is updated, but the
	// editor forgets pop_est_as_of.
	censusDay := hs.Span().End + 30
	histories = hs.Histories()
	for i, h := range histories {
		if h.Field == fields[0].est {
			days := append(append([]timeline.Day{}, h.Days()...), censusDay)
			histories[i] = changecube.NewHistory(h.Field, days)
		}
	}
	observed, err := changecube.NewHistorySet(cube, histories)
	if err != nil {
		log.Fatal(err)
	}

	window := timeline.Window{Span: timeline.NewSpan(censusDay-3, censusDay+4)}
	// One question, one window: the evidence kernel fills the verdict row
	// and reports every correlated partner that changed.
	var partners []correlation.FiredRule
	verdict := make([]bool, 1)
	predictor.Evidence(predict.OneWindow(observed, fields[0].asOf, window.Span), verdict,
		func(r correlation.FiredRule) { partners = append(partners, r) })
	if verdict[0] {
		fmt.Printf("\nLondon: pop_est_as_of should have changed in %v\n", window.Span)
		for _, r := range partners {
			fmt.Printf("  evidence: correlated field %q changed\n",
				cube.Properties.Name(int32(r.Partner.Property)))
		}
		fmt.Println("  -> this value might be out of date (Figure 1 marker)")
	} else {
		fmt.Println("no staleness detected (unexpected)")
	}

	// The mayor field is uncorrelated; the census must not implicate it.
	mayorField := changecube.FieldKey{Entity: fields[0].est.Entity, Property: mayor}
	predictor.PredictWindows(predict.OneWindow(observed, mayorField, window.Span), verdict)
	fmt.Printf("\nmayor flagged: %v (should be false — unrelated field)\n", verdict[0])
}
