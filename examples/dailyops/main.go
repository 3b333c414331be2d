// Dailyops demonstrates the operational loop the paper's deployment
// requires: a detector trained from the historical corpus and committed
// to an epoch store on disk, daily batches of freshly parsed changes
// ingested into the running detector (predictions see them immediately)
// and committed as new epochs, and the yearly retraining the paper
// recommends in §5.3.3. A restarted service boots from the newest epoch
// (staleserve -store) instead of retraining.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/epochstore"
	"github.com/wikistale/wikistale/internal/ingest"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "wikistale-dailyops")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	// Day 0: train on the historical corpus and commit the first epoch.
	// Retention keeps only the newest snapshot file on disk.
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		log.Fatal(err)
	}
	store, err := epochstore.Open(epochstore.Options{Dir: dir, Retain: 1})
	if err != nil {
		log.Fatal(err)
	}
	detector, err := core.Train(cube, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: %d correlation rules, %d association rules\n",
		detector.FieldCorrelations().NumRules(), detector.AssociationRules().NumRules())
	rec, err := store.Snapshot(ctx, detector, ingest.Checkpoint{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrapped store: epoch %d, %d changes\n", rec.Seq, rec.Changes)

	// Simulated daily operation: a match-day edit arrives where matches is
	// updated but total_goals is forgotten.
	matchesProp := changecube.PropertyID(cube.Properties.Intern("matches"))
	goalsProp := changecube.PropertyID(cube.Properties.Intern("total_goals"))
	season := cube.AddEntityNamed("infobox football league season", "2019-20 Handball-Bundesliga")
	today := detector.Histories().Span().End + 1
	batch := []changecube.Change{{
		Time:     today.Unix() + 40000,
		Entity:   season,
		Property: matchesProp,
		Value:    "9",
		Kind:     changecube.Update,
	}}

	// The change joins the corpus and the in-memory model, then the day's
	// epoch is committed.
	for _, ch := range batch {
		cube.Add(ch)
	}
	if err := detector.Ingest(batch); err != nil {
		log.Fatal(err)
	}
	if rec, err = store.Snapshot(ctx, detector, ingest.Checkpoint{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day %s: ingested without retraining, committed epoch %d\n", today, rec.Seq)

	// The evening stale scan: the brand-new page is already covered by the
	// template rule learned from other seasons.
	for _, alert := range detector.DetectStale(today+1, 3) {
		if alert.Field.Entity != season {
			continue
		}
		page := cube.Pages.Name(int32(cube.Page(alert.Field.Entity)))
		prop := cube.Properties.Name(int32(alert.Field.Property))
		fmt.Printf("stale: %s | %s — %s\n", page, prop, alert.Explanation)
		if alert.Field.Property != goalsProp {
			log.Fatal("unexpected property flagged")
		}
	}

	// Yearly maintenance: retrain from the accumulated data and commit it.
	retrained, err := detector.Retrain()
	if err != nil {
		log.Fatal(err)
	}
	if rec, err = store.Snapshot(ctx, retrained, ingest.Checkpoint{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrained (test split now ends %s); committed epoch %d, %d snapshot file(s) kept\n",
		retrained.Splits().Test.End, rec.Seq, store.Stats().Files)
}
