package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/epochstore"
	"github.com/wikistale/wikistale/internal/ingest"
	"github.com/wikistale/wikistale/internal/timeline"
)

const (
	// feedInterval is the feed schedule: one withheld day every 100 ms.
	feedInterval = 100 * time.Millisecond
	// retrainEvery is the manager's retrain interval.
	retrainEvery = 2 * time.Second
	// withheldDays is how much of the corpus end is held back as the
	// live feed.
	withheldDays = 365
)

// splitCube copies cube into a warm-start cube holding the changes
// before cutoff and a feed cube holding the rest. Both keep every entity
// in the original order, so infobox ordinals agree between them.
func splitCube(cube *changecube.Cube, cutoff timeline.Day) (warm, feed *changecube.Cube) {
	warm, feed = changecube.New(), changecube.New()
	for _, c := range []*changecube.Cube{warm, feed} {
		for _, name := range cube.Properties.Names() {
			c.Properties.Intern(name)
		}
		for e := 0; e < cube.NumEntities(); e++ {
			info := cube.Entity(changecube.EntityID(e))
			c.AddEntityNamed(cube.Templates.Name(int32(info.Template)), cube.Pages.Name(int32(info.Page)))
		}
	}
	cube.EachChange(func(_ int, ch changecube.Change) bool {
		if timeline.DayOfUnix(ch.Time) < cutoff {
			warm.Add(ch)
		} else {
			feed.Add(ch)
		}
		return true
	})
	return warm, feed
}

// schedSource delivers the feed's day batches on a fixed open-loop
// schedule and records when each was due, returned and consumed. Next
// and Position run on the manager's consume goroutine only; the records
// are read after the manager returns.
type schedSource struct {
	inner    *ingest.Stream
	limit    int // batches to deliver before io.EOF
	start    time.Time
	returned []time.Time
	consumed []time.Duration // Next return → next Next call
	eofAt    time.Time
}

func (s *schedSource) due(i int) time.Time { return s.start.Add(time.Duration(i) * feedInterval) }

func (s *schedSource) Next(ctx context.Context) ([]ingest.Event, error) {
	now := time.Now()
	if s.start.IsZero() {
		s.start = now
	}
	if n := len(s.returned); n > 0 && len(s.consumed) < n {
		s.consumed = append(s.consumed, now.Sub(s.returned[n-1]))
	}
	n := len(s.returned)
	sleepUntil(s.due(n))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n >= s.limit || s.inner.Remaining() == 0 {
		s.eofAt = time.Now()
		return nil, io.EOF
	}
	events, err := s.inner.Next(ctx)
	s.returned = append(s.returned, time.Now())
	return events, err
}

func (s *schedSource) Position() ingest.SourcePosition { return s.inner.Position() }

// liveSys is one built live system.
type liveSys struct {
	st  *ingest.Staging
	s   *serving
	es  *epochstore.Store
	dir string
}

// epochRec is one swap the manager made.
type epochRec struct {
	swapStart, swapEnd time.Time
	covered            int // feed batches the epoch's training saw
	retrain            ingest.RetrainRecord
	snapshot           time.Duration
}

// retirement is a servable key an epoch dropped, and when.
type retirement struct {
	key catalogKey
	at  time.Time
}

// errMaybeRetired marks a 404 for a field that may have been retired by
// a swap; it is classified once the run is over.
var errMaybeRetired = errors.New("404 for a possibly retired field")

func runServeLive(o Options, res *Result) error {
	cube, gen, err := generate(o.Seed, res)
	if err != nil {
		return err
	}
	start := time.Now()
	cutoff := cube.Span().End - withheldDays
	warmCube, feedCube := splitCube(cube, cutoff)
	stream := ingest.NewStream(feedCube)
	gen += time.Since(start)
	res.Notef("feed: %d warm-start changes, %d withheld changes in %d day batches",
		warmCube.NumChanges(), feedCube.NumChanges(), stream.Remaining())
	cube = nil

	var rec *Recorder
	if o.Trace {
		rec = NewRecorder()
	}
	storeRoot := filepath.Join(o.OutDir, fmt.Sprintf("store-%d", os.Getpid()))
	defer os.RemoveAll(storeRoot)
	cfg := core.DefaultConfig()
	if err := os.MkdirAll(storeRoot, 0o755); err != nil {
		return err
	}
	build := func() (*liveSys, error) {
		dir, err := os.MkdirTemp(storeRoot, "epochs-")
		if err != nil {
			return nil, err
		}
		st, err := ingest.NewStagingFromCube(warmCube, cfg.Filter)
		if err != nil {
			return nil, err
		}
		hs, stats, err := st.Snapshot()
		if err != nil {
			return nil, err
		}
		det, err := core.TrainFiltered(hs, stats, cfg)
		if err != nil {
			return nil, err
		}
		es, err := epochstore.Open(epochstore.Options{Dir: dir})
		if err != nil {
			return nil, err
		}
		srv, scorer := newServer()
		es.SetQualitySource(scorer.MarshalBinary)
		srv.SetStoreStats(func() any { return es.Stats() })
		srv.Swap(det)
		var h http.Handler = srv.Handler()
		if rec != nil {
			h = handlerSpans(h, rec)
		}
		s, err := listen(srv, scorer, h)
		if err != nil {
			return nil, err
		}
		return &liveSys{st: st, s: s, es: es, dir: dir}, nil
	}
	sys, err := repeatSetup(res, gen, build, func(ls *liveSys) { ls.s.Close() })
	if err != nil {
		return err
	}
	defer sys.s.Close()
	srv, scorer := sys.s.srv, sys.s.scorer

	catalog, err := fetchCatalog(srv.Handler())
	if err != nil {
		return err
	}
	warm := newLoader(sys.s, planHot(o.Seed+1, liveRate/2, len(catalog)), catalog)
	warm.measure(liveRate)

	n := int(liveRate * o.Seconds)
	l := newLoader(sys.s, planHot(o.Seed, n, len(catalog)), catalog)
	l.hold404 = true
	if rec != nil {
		l.rec = rec
		l.tracedFrom = n / 2
	}

	// Catalog refresh: every swap the callback sees re-reads the
	// keyspace, so requests aim at fields the new epoch serves and a
	// field an epoch retired is known as such.
	var (
		mu       sync.Mutex
		epochs   []epochRec
		retired  []retirement
		stages   = map[string]float64{}
		refresh  = make(chan time.Time, 1)
		refDone  = make(chan struct{})
		refErr   error
		snapErrs []error
		finalDet *core.Detector
	)
	go func() {
		defer close(refDone)
		prev := catalog
		for at := range refresh {
			cat, err := fetchCatalog(srv.Handler())
			if err != nil {
				refErr = err
				continue
			}
			now := map[catalogKey]bool{}
			for _, k := range cat {
				now[k] = true
			}
			mu.Lock()
			for _, k := range prev {
				if !now[k] {
					retired = append(retired, retirement{k, at})
				}
			}
			mu.Unlock()
			l.catalog.Store(&cat)
			prev = cat
		}
	}()

	src := &schedSource{inner: stream, limit: int(o.Seconds * float64(time.Second) / float64(feedInterval))}
	var mgr *ingest.Manager
	swap := func(det *core.Detector) {
		t0 := time.Now()
		srv.Swap(det)
		t1 := time.Now()
		mu.Lock()
		epochs = append(epochs, epochRec{swapStart: t0, swapEnd: t1})
		mu.Unlock()
		recordTrainStages(stages, det.TrainReport())
		finalDet = det
		select {
		case refresh <- t0:
		default:
		}
	}
	mgr = ingest.NewManager(src, sys.st, swap, ingest.Config{
		Train:            cfg,
		RetrainInterval:  retrainEvery,
		Incremental:      true,
		FullRebuildEvery: 32,
	})
	mgr.SetEventObserver(func(events []ingest.Event) {
		for _, ev := range events {
			scorer.Observe(ev.Page, ev.Property, int32(timeline.DayOfUnix(ev.Time)))
		}
	})
	mgr.SetPostSwap(func(ctx context.Context, det *core.Detector, cp ingest.Checkpoint) {
		recent := mgr.Stats().RecentRetrains
		t0 := time.Now()
		_, err := sys.es.Snapshot(ctx, det, cp)
		d := time.Since(t0)
		mu.Lock()
		e := &epochs[len(epochs)-1]
		e.covered = cp.Pos.Batch
		e.snapshot = d
		if len(recent) > 0 {
			e.retrain = recent[0]
		}
		if err != nil {
			snapErrs = append(snapErrs, err)
		}
		mu.Unlock()
	})
	srv.SetIngestStats(func() any { return mgr.Stats() })
	srv.SetLagSource(mgr.FeedLag)

	// The feed and the request load start together and run for the
	// measured phase; the manager then makes one final flush retrain.
	mgrErr := make(chan error, 1)
	go func() { mgrErr <- mgr.Run(context.Background()) }()
	run := l.measure(liveRate)
	if err := <-mgrErr; err != nil {
		return fmt.Errorf("ingest manager: %w", err)
	}
	close(refresh)
	<-refDone
	if refErr != nil {
		res.Checkf("catalog refresh: %v", refErr)
	}
	for _, err := range snapErrs {
		res.Checkf("epoch snapshot: %v", err)
	}
	classifyRetired(run.arrivals, l, retired)
	run.report(res, l)

	reportFeed(res, src, epochs, rec)
	setTrainStages(res, stages)
	if rec != nil {
		run.reportTrace(res, l)
		measureDetect(res, finalDet, o.Seed, 64)
	}

	// Output checks: the final epoch is exactly a cold training on the
	// final staging snapshot, and a restart from the store serves the
	// same default /v1/stale body.
	hs, stats, err := sys.st.Snapshot()
	if err != nil {
		return err
	}
	cold, err := core.TrainFiltered(hs, stats, cfg)
	if err != nil {
		return err
	}
	res.Notef("corpus: filtered_fields=%d", cold.Histories().Len())
	coldBytes, err := cold.MarshalModel()
	if err != nil {
		return err
	}
	finalBytes, err := finalDet.MarshalModel()
	if err != nil {
		return err
	}
	if !bytes.Equal(coldBytes, finalBytes) {
		res.Checkf("final epoch model (%d bytes) differs from a cold TrainFiltered on the final staging snapshot (%d bytes)",
			len(finalBytes), len(coldBytes))
	}
	if err := checkRestart(res, sys, rec); err != nil {
		return err
	}
	if rec != nil {
		if err := rec.WriteFile(spanFile(o)); err != nil {
			return err
		}
	}
	return nil
}

// classifyRetired settles each held 404: it is legitimate when its key
// was retired by a swap that began before the response arrived, and a
// failure otherwise.
func classifyRetired(arr []Arrival, l *loader, retired []retirement) {
	for i := range arr {
		a := &arr[i]
		if a.Err != errMaybeRetired {
			continue
		}
		_, key := l.path(l.plan[i])
		a.Err = fmt.Errorf("field %s/%s: status 404", key.Page, key.Property)
		for _, r := range retired {
			if r.key == key && !r.at.After(a.Done) {
				a.Err = nil
				l.retiredN++
				break
			}
		}
		if a.Err != nil {
			l.status[http.StatusNotFound]++
		}
	}
}

// reportFeed derives event-to-answer latency and the ingest, swap and
// snapshot figures from the feed schedule and the epochs swapped in.
func reportFeed(res *Result, src *schedSource, epochs []epochRec, rec *Recorder) {
	var e2a, trigger, retrain, swap, late, consume, snap Samples
	flushed := 0
	for i := range src.returned {
		due := src.due(i)
		late.AddDuration(src.returned[i].Sub(due), time.Millisecond)
		if i < len(src.consumed) {
			consume.AddDuration(src.consumed[i], time.Millisecond)
		}
		for _, e := range epochs {
			if e.covered <= i {
				continue
			}
			if !src.eofAt.IsZero() && e.swapStart.After(src.eofAt) {
				flushed++ // answered by the end-of-feed flush, not the schedule
				break
			}
			e2a.AddDuration(e.swapEnd.Sub(due), time.Second)
			rt := time.Duration(e.retrain.Seconds * float64(time.Second))
			trigger.AddDuration(e.swapStart.Add(-rt).Sub(due), time.Second)
			retrain.Add(e.retrain.Seconds)
			swap.AddDuration(e.swapEnd.Sub(e.swapStart), time.Second)
			break
		}
	}
	var retrainS Samples
	reused, retrained := 0, 0
	for _, e := range epochs {
		retrainS.Add(e.retrain.Seconds)
		reused += e.retrain.PagesReused
		retrained += e.retrain.PagesRetrained
		snap.AddDuration(e.snapshot, time.Millisecond)
		if rec != nil {
			id := rec.NewID()
			rt := time.Duration(e.retrain.Seconds * float64(time.Second))
			rec.Add(id, 0, id, "retrain "+e.retrain.Mode, e.swapStart.Add(-rt), e.swapStart)
			sid := rec.NewID()
			rec.Add(sid, 0, sid, "swap", e.swapStart, e.swapEnd)
			pid := rec.NewID()
			rec.Add(pid, 0, pid, "snapshot", e.swapEnd, e.swapEnd.Add(e.snapshot))
		}
	}
	if rec != nil {
		for i := range src.returned {
			id := rec.NewID()
			end := src.returned[i]
			if i < len(src.consumed) {
				end = end.Add(src.consumed[i])
			}
			rec.Add(id, 0, id, "feed batch", src.due(i), end)
		}
	}
	res.SetPct("e2a_p50_s", &e2a, 50, "s")
	res.Set("answer_p50_ms", 1000*e2a.Percentile(50), "ms", e2a.N())
	res.SetPct("e2a_p95_s", &e2a, 95, "s")
	res.SetPct("ingest.feed_late_p99_ms", &late, 99, "ms")
	res.SetPct("ingest.consume_ms_p99", &consume, 99, "ms")
	res.SetPct("ingest.retrain_s_p50", &retrainS, 50, "s")
	if reused+retrained > 0 {
		res.Set("ingest.pages_retrained_frac", float64(retrained)/float64(reused+retrained), "fraction", 0)
	}
	var swapMs Samples
	for _, e := range epochs {
		swapMs.AddDuration(e.swapEnd.Sub(e.swapStart), time.Millisecond)
	}
	res.SetPct("staleserve.swap_ms_p50", &swapMs, 50, "ms")
	res.SetPct("epochstore.snapshot_ms_p50", &snap, 50, "ms")
	res.Notef("feed: %d batches delivered, %d epochs swapped, %d batches answered by the final flush (not in e2a)",
		len(src.returned), len(epochs), flushed)
	res.Notef("accounting (p50s over scheduled batches): trigger wait %.3f s + retrain %.3f s + swap %.3f s = %.3f s; e2a p50 %.3f s",
		trigger.Percentile(50), retrain.Percentile(50), swap.Percentile(50),
		trigger.Percentile(50)+retrain.Percentile(50)+swap.Percentile(50), e2a.Percentile(50))
}

// epochField matches the per-process epoch number in a /v1/stale body.
var epochField = regexp.MustCompile(`"epoch":[0-9]+`)

// checkRestart reopens the epoch store into a fresh server, times the
// restart, and compares its default /v1/stale body with the live
// server's. Epoch numbers restart at 1 in a new process, so they are
// masked before the comparison.
func checkRestart(res *Result, sys *liveSys, rec *Recorder) error {
	client := newClient(1)
	want, err := sys.s.get(client, "/v1/stale")
	if err != nil {
		return err
	}
	start := time.Now()
	es, err := epochstore.Open(epochstore.Options{Dir: sys.dir})
	if err != nil {
		return err
	}
	t0 := time.Now()
	lr, err := es.LoadLatest(context.Background(), core.DefaultConfig())
	if err != nil {
		return err
	}
	load := time.Since(t0)
	if lr.Outcome != "latest" {
		res.Checkf("store reopen: outcome %q (%v)", lr.Outcome, lr.Errors)
		return nil
	}
	srv, scorer := newServer()
	if len(lr.Quality) > 0 {
		if err := scorer.Restore(lr.Quality); err != nil {
			res.Checkf("quality state restore: %v", err)
		}
	}
	srv.Swap(lr.Detector)
	s, err := listen(srv, scorer, srv.Handler())
	if err != nil {
		return err
	}
	defer s.Close()
	if _, err := s.get(client, "/readyz"); err != nil {
		res.Checkf("restarted server not ready: %v", err)
		return nil
	}
	restart := time.Since(start)
	res.Set("restart_s", restart.Seconds(), "s", 0)
	res.Set("epochstore.load_ms", float64(load)/float64(time.Millisecond), "ms", 0)
	if rec != nil {
		id := rec.NewID()
		rec.Add(id, 0, id, "restart", start, start.Add(restart))
		rec.Add(rec.NewID(), id, id, "epochstore.load", t0, t0.Add(load))
	}
	got, err := s.get(client, "/v1/stale")
	if err != nil {
		return err
	}
	mask := func(b []byte) []byte { return epochField.ReplaceAll(b, []byte(`"epoch":0`)) }
	if !bytes.Equal(mask(want), mask(got)) {
		res.Checkf("restarted server's default /v1/stale body differs from the live server's (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}
