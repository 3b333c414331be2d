package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/filter"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/obs/quality"
	"github.com/wikistale/wikistale/internal/staleserve"
)

// generate builds the Default corpus with the run's seed.
func generate(seed int64, res *Result) (*changecube.Cube, time.Duration, error) {
	cfg := dataset.Default()
	cfg.Seed = seed
	start := time.Now()
	cube, _, err := dataset.Generate(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("generating corpus: %w", err)
	}
	d := time.Since(start)
	res.RawChanges = cube.NumChanges()
	res.Set("dataset.generate_s", d.Seconds(), "s", 0)
	res.Notef("corpus: seed=%d raw_changes=%d", seed, cube.NumChanges())
	return cube, d, nil
}

// setupReps is how many times a run builds the system under test;
// setup_s reports the median build.
const setupReps = 3

// repeatSetup calls build setupReps times, keeps the last system and
// releases the others, and records setup_s as input generation plus the
// median build time.
func repeatSetup[T any](res *Result, gen time.Duration, build func() (T, error), release func(T)) (T, error) {
	var kept T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release(kept)
			runtime.GC()
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return kept, err
		}
		secs = append(secs, time.Since(start).Seconds())
		kept = v
	}
	res.Set("setup_s", gen.Seconds()+median(secs), "s", len(secs))
	return kept, nil
}

// serving is a staleserve.Server behind a loopback HTTP listener.
type serving struct {
	srv    *staleserve.Server
	scorer *quality.Scorer
	http   *http.Server
	base   string
	served chan error
}

// newServer wires a live-mode server the way cmd/staleserve -live does:
// online quality scoring registered before the first swap.
func newServer() (*staleserve.Server, *quality.Scorer) {
	srv := staleserve.NewLive()
	scorer := quality.New(quality.DefaultHorizonDays)
	srv.SetQualityScorer(scorer)
	return srv, scorer
}

// listen serves h on a fresh loopback port.
func listen(srv *staleserve.Server, scorer *quality.Scorer, h http.Handler) (*serving, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serving{
		srv:    srv,
		scorer: scorer,
		http:   &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// Close stops the listener and waits for the serve loop to return.
func (s *serving) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // a timed-out drain still closes the listener
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("serve loop:", err)
	}
}

// get fetches path and returns the body, failing on any non-200.
func (s *serving) get(client *http.Client, path string) ([]byte, error) {
	resp, err := client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// newClient returns a client holding at most conns connections, one per
// load worker.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// loadConns is the client's connection and worker count: no more than
// the machine has processors.
func loadConns() int { return max(runtime.NumCPU(), 1) }

// trainServing filters and trains a detector on cube the way the batch
// server does and returns it with the filter and training times.
func trainServing(cube *changecube.Cube) (*core.Detector, time.Duration, time.Duration, error) {
	cfg := core.DefaultConfig()
	start := time.Now()
	hs, stats, err := filter.Apply(cube, cfg.Filter)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("filtering: %w", err)
	}
	filtered := time.Since(start)
	det, err := core.TrainFiltered(hs, stats, cfg)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("training: %w", err)
	}
	return det, filtered, time.Since(start) - filtered, nil
}

// catalogKey is one servable (page, property) pair.
type catalogKey struct{ Page, Property string }

// fetchCatalog reads the full servable keyspace through the handler,
// without a network hop.
func fetchCatalog(h http.Handler) ([]catalogKey, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/catalog?limit=0", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("catalog: status %d", rec.Code)
	}
	var body struct {
		Fields []catalogKey `json:"fields"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if len(body.Fields) == 0 {
		return nil, errors.New("catalog is empty")
	}
	return body.Fields, nil
}

// cacheCounters reads the alert-cache hit and miss counters the server
// exports on /metrics.
func cacheCounters() (hits, misses uint64) {
	return obs.Default.Counter("wikistale_alert_cache_hits_total", nil).Value(),
		obs.Default.Counter("wikistale_alert_cache_misses_total", nil).Value()
}

// recordTrainStages adds a TrainReport's stage times to sums, keyed by
// the stage names perfbench reports.
func recordTrainStages(sums map[string]float64, rep core.TrainReport) {
	for _, st := range rep.Filter.Stages {
		sums["filter"] += st.Duration.Seconds()
	}
	for _, st := range rep.Stages {
		name := st.Name
		if i := len("train/"); len(name) > i && name[:i] == "train/" {
			name = name[i:]
		}
		sums[name] += st.Duration.Seconds()
	}
}

// setTrainStages reports summed stage times, one metric per stage.
func setTrainStages(res *Result, sums map[string]float64) {
	for _, s := range perLayer {
		const prefix = "core.train_stage_s."
		if len(s.Name) > len(prefix) && s.Name[:len(prefix)] == prefix {
			res.Set(s.Name, sums[s.Name[len(prefix):]], "s", 0)
		}
	}
}
