package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/staleserve"
	"github.com/wikistale/wikistale/internal/timeline"
)

const (
	// hotRate is serve_hot's offered load. A request takes about 50 µs
	// on two vCPUs; at 500 or 2000 req/s the vCPUs idled between
	// requests, and the cost of waking them moved the median by 10-15 %
	// from run to run. At 8000 req/s they stay awake and each worker's
	// connection is busy about a fifth of the time.
	hotRate = 8000
	// liveRate is serve_live's offered load, the ROADMAP's 500 req/s:
	// at 2000 req/s the retrains starve the in-process client and server
	// and the median request took up to 19 ms.
	liveRate = 500
	// sweepRate is serve_sweep's offered load: about a third of what two
	// cores sustain when every request runs DetectStale. At half, a
	// machine slowed by its neighbours tipped into queueing and the
	// median tripled.
	sweepRate = 100
	// maxLateP99 is the validity bound on the load generator: a run
	// whose generator fell further behind schedule than this at p99
	// did not offer the load it claims, so it reports no numbers.
	maxLateP99 = 100 * time.Millisecond
	// staleLimit is the page size of every /v1/stale request.
	staleLimit = 50
	// checkSamples bounds how many responses per route are kept for the
	// output checks.
	checkSamples = 24
	// spanHeader carries the client span id to the handler wrapper.
	spanHeader = "X-Perfbench-Span"
)

// request is one planned HTTP request.
type request struct {
	route  string       // field, explain, stale, quality or epochdiff
	rank   int          // zipf rank into the catalog (field, explain)
	asOf   timeline.Day // stale: 0 means the default, the data's last day
	window int          // stale
}

// hotWindows are the stale windows the hot mix polls: the default window
// (pre-warmed at every swap) and two more a dashboard keeps hot.
var hotWindows = []int{7, 14, 30}

// sweepWindows are the windows serve_sweep draws from.
var sweepWindows = []int{1, 7, 30, 365}

// planHot draws n requests from the route mix field=55, explain=20,
// stale=20, quality=5 with zipf(1.1) popularity over catalog ranks.
func planHot(seed int64, n, catalogSize int) []request {
	rnd := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rnd, 1.1, 1, uint64(max(catalogSize-1, 1)))
	plan := make([]request, n)
	for i := range plan {
		switch r := rnd.Intn(100); {
		case r < 55:
			plan[i] = request{route: "field", rank: int(zipf.Uint64())}
		case r < 75:
			plan[i] = request{route: "explain", rank: int(zipf.Uint64())}
		case r < 95:
			plan[i] = request{route: "stale", window: hotWindows[rnd.Intn(len(hotWindows))]}
		case rnd.Intn(2) == 0:
			plan[i] = request{route: "quality"}
		default:
			plan[i] = request{route: "epochdiff"}
		}
	}
	return plan
}

// planSweep draws n /v1/stale requests with a uniformly random asof from
// the year before last (the 365 days before span end) and a window from
// sweepWindows.
func planSweep(seed int64, n int, last timeline.Day) []request {
	rnd := rand.New(rand.NewSource(seed))
	plan := make([]request, n)
	for i := range plan {
		plan[i] = request{
			route:  "stale",
			asOf:   last - timeline.Day(rnd.Intn(365)),
			window: sweepWindows[rnd.Intn(len(sweepWindows))],
		}
	}
	return plan
}

// sample is one response kept for the output checks.
type sample struct {
	index int // plan index; -1 for a probe outside the schedule
	req   request
	body  []byte
}

// errWrongBody marks an arrival whose answer failed an output check.
var errWrongBody = errors.New("wrong response body")

// loader drives planned requests against a server and keeps what the
// checks and the trace need.
type loader struct {
	s     *serving
	conns []*wireConn // one per load worker
	plan  []request
	// catalog is the keyspace field and explain requests draw from;
	// serve_live replaces it at every swap.
	catalog atomic.Pointer[[]catalogKey]
	rec     *Recorder
	// tracedFrom is the first plan index whose request is traced.
	tracedFrom int
	// hold404 marks a 404 on a field route as errMaybeRetired instead of
	// a failure, for classification after the run (serve_live).
	hold404 bool

	mu         sync.Mutex
	staleBody  []sample
	fieldBody  []sample
	retiredN   int
	status     map[int]int
	clientSpan []uint64 // span id per plan index (traced ones)
}

func newLoader(s *serving, plan []request, catalog []catalogKey) *loader {
	l := &loader{s: s, conns: newWireConns(s.base, loadConns()), plan: plan, status: map[int]int{},
		clientSpan: make([]uint64, len(plan)), tracedFrom: len(plan)}
	l.catalog.Store(&catalog)
	return l
}

// path renders plan entry r against the current catalog.
func (l *loader) path(r request) (string, catalogKey) {
	switch r.route {
	case "field", "explain":
		cat := *l.catalog.Load()
		k := cat[r.rank%len(cat)]
		return "/v1/" + r.route + "?page=" + url.QueryEscape(k.Page) + "&property=" + url.QueryEscape(k.Property), k
	case "stale":
		p := "/v1/stale?window=" + strconv.Itoa(r.window) + "&limit=" + strconv.Itoa(staleLimit)
		if r.asOf != 0 {
			p += "&asof=" + r.asOf.String()
		}
		return p, catalogKey{}
	case "quality":
		return "/debug/quality", catalogKey{}
	default:
		return "/debug/epochdiff", catalogKey{}
	}
}

// do runs plan entry i on worker w's connection; it is the open loop's
// per-arrival function.
func (l *loader) do(w int, i int) error {
	r := l.plan[i]
	path, key := l.path(r)
	var id uint64
	var header string
	if i >= l.tracedFrom {
		id = l.rec.NewID()
		header = spanHeader + ": " + strconv.FormatUint(id, 10) + "\r\n"
	}
	start := time.Now()
	code, body, err := l.conns[w].get(path, header)
	end := time.Now()
	if id != 0 {
		l.rec.Add(id, 0, id, "client "+r.route, start, end)
		l.clientSpan[i] = id
	}
	if err != nil {
		return err
	}
	switch {
	case code == http.StatusOK:
		l.keep(i, r, body)
		return nil
	case code == http.StatusNotFound && l.hold404 && key.Page != "":
		return errMaybeRetired
	default:
		l.mu.Lock()
		l.status[code]++
		l.mu.Unlock()
		return fmt.Errorf("%s: status %d", path, code)
	}
}

// keep retains a bounded number of stale and stale-field bodies.
func (l *loader) keep(i int, r request, body []byte) {
	switch r.route {
	case "stale":
		l.mu.Lock()
		if len(l.staleBody) < checkSamples {
			l.staleBody = append(l.staleBody, sample{i, r, body})
		}
		l.mu.Unlock()
	case "field":
		if !bytes.Contains(body, []byte(`"stale":true`)) {
			return
		}
		l.mu.Lock()
		if len(l.fieldBody) < checkSamples {
			l.fieldBody = append(l.fieldBody, sample{i, r, body})
		}
		l.mu.Unlock()
	}
}

// handlerSpans wraps the service handler so that each traced request
// records a handler span as the child of its client span.
func handlerSpans(next http.Handler, rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		if v := r.Header.Get(spanHeader); v != "" {
			parent, err := strconv.ParseUint(v, 10, 64)
			if err == nil {
				rec.Add(rec.NewID(), parent, parent, "handler "+r.URL.Path, start, end)
			}
		}
	})
}

// serveRun is what one measured open-loop phase produced.
type serveRun struct {
	arrivals []Arrival
	heapMB   float64
	rt       RuntimeDelta
	hitFrac  float64
	elapsed  time.Duration
}

// measure runs the loader's plan open-loop at rate and records loop,
// heap, runtime and alert-cache figures over the phase.
func (l *loader) measure(rate float64) serveRun {
	runtime.GC()
	hits0, miss0 := cacheCounters()
	rt0 := readRuntime()
	heap := watchHeap(5 * time.Millisecond)
	start := time.Now()
	loop := OpenLoop{
		Interval: time.Duration(float64(time.Second) / rate),
		Count:    len(l.plan),
		Workers:  loadConns(),
		QueueCap: max(int(rate), 64),
	}
	arr := loop.Run(context.Background(), start, l.do)
	for _, c := range l.conns {
		c.close()
	}
	var out serveRun
	out.elapsed = time.Since(start)
	out.heapMB = heap.Stop()
	out.rt = runtimeDelta(rt0, readRuntime())
	hits1, miss1 := cacheCounters()
	if n := (hits1 - hits0) + (miss1 - miss0); n > 0 {
		out.hitFrac = float64(hits1-hits0) / float64(n)
	}
	out.arrivals = arr
	return out
}

// markWrong turns the arrivals whose answers failed an output check
// into failures.
func (run serveRun) markWrong(indices []int) {
	for _, i := range indices {
		if i >= 0 {
			run.arrivals[i].Err = errWrongBody
		}
	}
}

// report records the end-to-end request metrics and generator figures
// of a measured phase, and marks the run invalid when the generator ran
// late.
func (run serveRun) report(res *Result, l *loader) {
	st := Summarise(run.arrivals, time.Millisecond)
	res.Attempted += st.Attempted
	res.Failed += st.Failed
	// A percentile that lands on a failure reads as the whole phase: the
	// request was not answered within it.
	phaseMs := float64(run.elapsed) / float64(time.Millisecond)
	res.Set("req_p50_ms", min(st.Latency.Percentile(50), phaseMs), "ms", st.Latency.N())
	res.Set("req_p99_ms", min(st.Latency.Percentile(99), phaseMs), "ms", st.Latency.N())
	res.Set("req_error_frac", float64(st.Failed)/float64(max(st.Attempted, 1)), "fraction", st.Attempted)
	if p, ok := TailPercentile(st.Latency.N()); ok {
		res.Notef("tail: p%g of %d requests = %.3f ms", p, st.Latency.N(), st.Latency.Percentile(p))
	}
	res.SetHeap(run.heapMB)
	res.SetPct("loadgen.late_p99_ms", &st.Late, 99, "ms")
	res.SetPct("loadgen.queue_wait_p99_ms", &st.QueueWait, 99, "ms")
	res.Set("staleserve.cache_hit_frac", run.hitFrac, "fraction", 0)
	res.Set("runtime.gc_pause_p99_ms", run.rt.GCPauseP99Ms, "ms", 0)
	res.Set("runtime.sched_latency_p99_ms", run.rt.SchedLatencyP99Ms, "ms", 0)
	res.Set("runtime.gc_cpu_frac", run.rt.GCCPUFrac, "fraction", 0)
	res.Notef("load: %d scheduled over %.2fs, %d dropped, %d failed (status %v), %d retired-field 404s",
		st.Attempted, run.elapsed.Seconds(), st.Dropped, st.Failed, l.status, l.retiredN)
	if late := st.Late.Percentile(99); late > float64(maxLateP99/time.Millisecond) {
		res.Invalid = fmt.Sprintf("load generator p99 lateness %.1f ms exceeds %v", late, maxLateP99)
	}
}

// reportTrace derives the per-layer request figures from the traced
// half of the plan and the tracing overhead against the untraced half.
func (run serveRun) reportTrace(res *Result, l *loader) {
	spans := l.rec.Spans()
	self := SelfTimes(spans)
	handler := map[uint64]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			handler[s.Parent] = s
		}
	}
	var httpSelf, hand, staleHand, untraced, traced, wait Samples
	for i := range run.arrivals {
		a := &run.arrivals[i]
		if a.Failed() {
			continue
		}
		if i < l.tracedFrom {
			untraced.AddDuration(a.Latency(), time.Millisecond)
			continue
		}
		traced.AddDuration(a.Latency(), time.Millisecond)
		wait.AddDuration(a.QueueWait(), time.Millisecond)
		id := l.clientSpan[i]
		h, ok := handler[id]
		if !ok {
			continue
		}
		httpSelf.AddDuration(self[id], time.Microsecond)
		hand.AddDuration(h.Dur(), time.Microsecond)
		if l.plan[i].route == "stale" {
			staleHand.AddDuration(h.Dur(), time.Millisecond)
		}
	}
	res.SetPct("http.self_p50_us", &httpSelf, 50, "us")
	res.SetPct("http.self_p99_us", &httpSelf, 99, "us")
	res.SetPct("staleserve.handler_p50_us", &hand, 50, "us")
	res.SetPct("staleserve.handler_p99_us", &hand, 99, "us")
	res.SetPct("staleserve.stale_handler_p50_ms", &staleHand, 50, "ms")
	res.Set("perfbench.trace_overhead_p50_ms", traced.Percentile(50)-untraced.Percentile(50), "ms", traced.N())
	res.Notef("accounting (traced half, p50s): queue wait %.3f ms + http.self %.3f ms + handler %.3f ms = %.3f ms; request p50 %.3f ms (untraced half %.3f ms)",
		wait.Percentile(50), httpSelf.Percentile(50)/1000, hand.Percentile(50)/1000,
		wait.Percentile(50)+httpSelf.Percentile(50)/1000+hand.Percentile(50)/1000,
		traced.Percentile(50), untraced.Percentile(50))
}

// checkStaleBodies compares sampled /v1/stale bodies with DetectStale on
// the serving detector and returns the plan indices of wrong ones.
func checkStaleBodies(res *Result, det *core.Detector, samples []sample) []int {
	var wrong []int
	for _, s := range samples {
		if err := staleBodyMismatch(det, s); err != nil {
			asOf := "default"
			if s.req.asOf != 0 {
				asOf = s.req.asOf.String()
			}
			res.Checkf("stale asof=%s window=%d: %v", asOf, s.req.window, err)
			wrong = append(wrong, s.index)
		}
	}
	res.Notef("checked %d sampled /v1/stale bodies against DetectStale", len(samples))
	return wrong
}

// staleBodyMismatch describes how a /v1/stale body differs from
// DetectStale, or returns nil when it does not.
func staleBodyMismatch(det *core.Detector, s sample) error {
	var body struct {
		Total  int                `json:"total"`
		Alerts []staleserve.Alert `json:"alerts"`
	}
	if err := json.Unmarshal(s.body, &body); err != nil {
		return err
	}
	asOf := s.req.asOf
	if asOf == 0 {
		asOf = det.Histories().Span().End
	}
	want := det.DetectStale(asOf, s.req.window)
	if body.Total != len(want) || len(body.Alerts) != min(len(want), staleLimit) {
		return fmt.Errorf("total %d with %d alerts in the body, DetectStale has %d", body.Total, len(body.Alerts), len(want))
	}
	cube := det.Histories().Cube()
	for i, got := range body.Alerts {
		if w := renderAlert(cube, want[i]); !reflect.DeepEqual(got, w) {
			return fmt.Errorf("alert %d: body %+v, DetectStale %+v", i, got, w)
		}
	}
	return nil
}

// renderAlert is the JSON shape the server gives a DetectStale alert.
func renderAlert(cube *changecube.Cube, a core.StaleAlert) staleserve.Alert {
	return staleserve.Alert{
		Page:        cube.Pages.Name(int32(cube.Page(a.Field.Entity))),
		Template:    cube.Templates.Name(int32(cube.Template(a.Field.Entity))),
		Property:    cube.Properties.Name(int32(a.Field.Property)),
		WindowStart: a.Window.Start.String(),
		WindowEnd:   a.Window.End.String(),
		Sources:     a.Sources,
		Explanation: a.Explanation,
	}
}

// checkFieldBodies checks that every sampled stale /v1/field answer
// agrees with Explain on the serving detector for some infobox on the
// page carrying the property, and returns the plan indices of wrong ones.
func checkFieldBodies(res *Result, det *core.Detector, samples []sample) []int {
	var wrong []int
	cube := det.Histories().Cube()
	last := det.Histories().Span().End
	for _, s := range samples {
		var body staleserve.FieldStatus
		if err := json.Unmarshal(s.body, &body); err != nil {
			res.Checkf("field body: %v", err)
			wrong = append(wrong, s.index)
			continue
		}
		page, okPage := cube.Pages.Lookup(body.Page)
		prop, okProp := cube.Properties.Lookup(body.Property)
		agreed := false
		for e := 0; okPage && okProp && e < cube.NumEntities() && !agreed; e++ {
			id := changecube.EntityID(e)
			if int32(cube.Page(id)) != page {
				continue
			}
			ex := det.Explain(changecube.FieldKey{Entity: id, Property: changecube.PropertyID(prop)}, last, 7)
			agreed = ex.Stale && ex.Summary == body.Explanation
		}
		if !agreed {
			res.Checkf("field %s/%s is stale on the wire but Explain disagrees", body.Page, body.Property)
			wrong = append(wrong, s.index)
		}
	}
	if len(samples) == 0 {
		res.Checkf("no stale /v1/field answer to check")
	}
	res.Notef("checked %d stale /v1/field bodies against Explain", len(samples))
	return wrong
}

// probeStaleFields asks /v1/field about fields DetectStale reports at
// the default window and keeps the answers that say stale. The request
// mix rarely lands on one, so the field check would otherwise go
// unexercised.
func probeStaleFields(s *serving, det *core.Detector) ([]sample, error) {
	cube := det.Histories().Cube()
	client := newClient(1)
	var out []sample
	for _, a := range det.DetectStale(det.Histories().Span().End, 7) {
		if len(out) == checkSamples {
			break
		}
		body, err := s.get(client, "/v1/field?page="+url.QueryEscape(cube.Pages.Name(int32(cube.Page(a.Field.Entity))))+
			"&property="+url.QueryEscape(cube.Properties.Name(int32(a.Field.Property))))
		if err != nil {
			return nil, err
		}
		if bytes.Contains(body, []byte(`"stale":true`)) {
			out = append(out, sample{-1, request{route: "field"}, body})
		}
	}
	return out, nil
}

// measureDetect times direct DetectStale calls on n sweep keys against
// the serving detector.
func measureDetect(res *Result, det *core.Detector, seed int64, n int) {
	var ms Samples
	for _, r := range planSweep(seed+99, n, det.Histories().Span().End) {
		start := time.Now()
		det.DetectStale(r.asOf, r.window)
		ms.AddDuration(time.Since(start), time.Millisecond)
	}
	res.SetPct("core.detect_stale_ms_p50", &ms, 50, "ms")
	res.SetPct("core.detect_stale_ms_p99", &ms, 99, "ms")
}

// runServeHot measures the settled server on the hot request mix.
func runServeHot(o Options, res *Result) error { return runSettled(o, res, false) }

// runServeSweep measures the settled server on uncached stale keys.
func runServeSweep(o Options, res *Result) error { return runSettled(o, res, true) }

// settled is one built settled server.
type settled struct {
	det     *core.Detector
	s       *serving
	filterD time.Duration
	trainD  time.Duration
	swapD   time.Duration
}

func runSettled(o Options, res *Result, sweep bool) error {
	cube, gen, err := generate(o.Seed, res)
	if err != nil {
		return err
	}
	var rec *Recorder
	if o.Trace {
		rec = NewRecorder()
	}
	build := func() (*settled, error) {
		det, fd, td, err := trainServing(cube)
		if err != nil {
			return nil, err
		}
		srv, scorer := newServer()
		start := time.Now()
		srv.Swap(det)
		swapD := time.Since(start)
		var h http.Handler = srv.Handler()
		if rec != nil {
			h = handlerSpans(h, rec)
		}
		s, err := listen(srv, scorer, h)
		if err != nil {
			return nil, err
		}
		return &settled{det: det, s: s, filterD: fd, trainD: td, swapD: swapD}, nil
	}
	st, err := repeatSetup(res, gen, build, func(st *settled) { st.s.Close() })
	if err != nil {
		return err
	}
	defer st.s.Close()
	res.Notef("corpus: filtered_fields=%d", st.det.Histories().Len())
	res.Set("filter.apply_s", st.filterD.Seconds(), "s", 0)
	res.Set("core.train_s", st.trainD.Seconds(), "s", 0)
	res.Set("staleserve.swap_ms_p50", float64(st.swapD)/float64(time.Millisecond), "ms", 1)
	stages := map[string]float64{}
	recordTrainStages(stages, st.det.TrainReport())
	setTrainStages(res, stages)

	catalog, err := fetchCatalog(st.s.srv.Handler())
	if err != nil {
		return err
	}
	rate := float64(hotRate)
	last := st.det.Histories().Span().End
	plan := func(seed int64, n int) []request {
		if sweep {
			return planSweep(seed, n, last)
		}
		return planHot(seed, n, len(catalog))
	}
	if sweep {
		rate = sweepRate
	}

	// Warm-up: connections open, the hot windows enter the alert cache.
	warm := newLoader(st.s, plan(o.Seed+1, int(rate)), catalog)
	warm.measure(rate)

	n := int(rate * o.Seconds)
	l := newLoader(st.s, plan(o.Seed, n), catalog)
	if rec != nil {
		l.rec = rec
		l.tracedFrom = n / 2
	}
	run := l.measure(rate)
	fields, err := probeStaleFields(st.s, st.det)
	if err != nil {
		return err
	}
	if len(l.staleBody) == 0 {
		res.Checkf("no /v1/stale response was sampled")
	}
	run.markWrong(checkStaleBodies(res, st.det, l.staleBody))
	run.markWrong(checkFieldBodies(res, st.det, append(l.fieldBody, fields...)))
	run.report(res, l)
	// A sweep request's cost grows with the corpus; a hot one's does not.
	answer := res.Metrics["req_p50_ms"]
	if sweep {
		answer.Value = res.perMChange(answer.Value)
	}
	res.Set("answer_p50_ms", answer.Value, "ms", answer.N)
	if rec != nil {
		run.reportTrace(res, l)
		measureDetect(res, st.det, o.Seed, 64)
		if err := rec.WriteFile(spanFile(o)); err != nil {
			return err
		}
	}
	return nil
}

// spanFile is where a traced run writes its spans.
func spanFile(o Options) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", o.OutDir, o.Workload, o.Seed)
}
