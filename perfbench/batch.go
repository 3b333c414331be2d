package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/eval"
	"github.com/wikistale/wikistale/internal/filter"
	"github.com/wikistale/wikistale/internal/timeline"
)

// minORPrecision is the floor on the OR ensemble's 7-day precision for
// any seed: the paper's headline operating point.
const minORPrecision = 0.85

// Table1Row is one predictor at one window size.
type Table1Row struct {
	Precision   float64 `json:"precision"`
	Recall      float64 `json:"recall"`
	Predictions int     `json:"predictions"`
}

// Pin is the expected batch_table1 output for one seed.
type Pin struct {
	ModelSHA256 string               `json:"model_sha256"`
	Table1      map[string]Table1Row `json:"table1"` // "predictor/size"
}

//go:embed pins.json
var pinsJSON []byte

// pass is one filter → train → evaluate run over the corpus.
type pass struct {
	filter, train, eval time.Duration
	report              core.TrainReport
	filtered            int
	out                 Pin
}

func (p pass) total() time.Duration { return p.filter + p.train + p.eval }

// runPass runs the batch pipeline once and records a span per call when
// rec is non-nil. probe, when non-nil, runs after each call while its
// results are still referenced.
func runPass(cube *changecube.Cube, rec *Recorder, probe func()) (pass, error) {
	cfg := core.DefaultConfig()
	if probe == nil {
		probe = func() {}
	}
	var p pass
	root := rec.NewID()
	t0 := time.Now()
	hs, stats, err := filter.Apply(cube, cfg.Filter)
	if err != nil {
		return p, fmt.Errorf("filter: %w", err)
	}
	t1 := time.Now()
	probe()
	det, err := core.TrainFiltered(hs, stats, cfg)
	if err != nil {
		return p, fmt.Errorf("train: %w", err)
	}
	t2 := time.Now()
	probe()
	rep, err := det.EvaluateTest(eval.Options{
		Sizes:        timeline.StandardSizes,
		OverTimeSize: 7,
		OverlapPairs: [][2]int{{2, 3}},
	})
	if err != nil {
		return p, fmt.Errorf("eval: %w", err)
	}
	t3 := time.Now()
	probe()
	if rec != nil {
		rec.Add(root, 0, root, "batch pass", t0, t3)
		rec.Add(rec.NewID(), root, root, "filter.Apply", t0, t1)
		rec.Add(rec.NewID(), root, root, "core.TrainFiltered", t1, t2)
		rec.Add(rec.NewID(), root, root, "Detector.EvaluateTest", t2, t3)
	}
	p.filter, p.train, p.eval = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	p.report, p.filtered = det.TrainReport(), hs.Len()
	model, err := det.MarshalModel()
	if err != nil {
		return p, err
	}
	sum := sha256.Sum256(model)
	p.out = Pin{ModelSHA256: hex.EncodeToString(sum[:]), Table1: table1(rep)}
	return p, nil
}

// table1 flattens a report into "predictor/size" rows.
func table1(rep *eval.Report) map[string]Table1Row {
	rows := map[string]Table1Row{}
	for _, name := range rep.Predictors {
		for _, size := range timeline.StandardSizes {
			c := rep.BySize[name][size]
			rows[name+"/"+strconv.Itoa(size)] = Table1Row{c.Precision(), c.Recall(), c.Predictions()}
		}
	}
	return rows
}

// orKey is the Table-1 row of the OR ensemble at 7 days: the last
// predictor in the paper's row order.
func orKey(rows map[string]Table1Row) (string, bool) {
	for k := range rows {
		if strings.HasPrefix(k, "OR") && strings.HasSuffix(k, "/7") {
			return k, true
		}
	}
	return "", false
}

func runBatchTable1(o Options, res *Result) error {
	cube, gen, err := generate(o.Seed, res)
	if err != nil {
		return err
	}
	res.Set("setup_s", gen.Seconds(), "s", 1)
	var rec *Recorder
	if o.Trace {
		rec = NewRecorder()
	}
	// One untimed pass first: the heap grows to its working size, so the
	// timed passes all run warm. It also gives heap_peak_mb: the live
	// heap after each call, read after a forced collection, so the figure
	// does not depend on where the collector's cycle happened to be.
	var heapPeak uint64
	if _, err := runPass(cube, nil, func() {
		runtime.GC()
		heapPeak = max(heapPeak, liveHeap())
	}); err != nil {
		return err
	}
	res.SetHeap(float64(heapPeak) / (1 << 20))
	rt0 := readRuntime()
	start := time.Now()
	var passes []pass
	for len(passes) < 2 || time.Since(start).Seconds() < o.Seconds {
		// A traced run traces every other pass; the untraced ones give
		// the overhead baseline.
		var r *Recorder
		if len(passes)%2 == 1 {
			r = rec
		}
		p, err := runPass(cube, r, nil)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	rt := runtimeDelta(rt0, readRuntime())
	res.Set("runtime.gc_pause_p99_ms", rt.GCPauseP99Ms, "ms", 0)
	res.Set("runtime.sched_latency_p99_ms", rt.SchedLatencyP99Ms, "ms", 0)
	res.Set("runtime.gc_cpu_frac", rt.GCCPUFrac, "fraction", 0)

	var total, fil, trn, evl Samples
	var traced, untraced []float64
	for i, p := range passes {
		ms := float64(p.total()) / float64(time.Millisecond)
		total.Add(ms)
		fil.Add(p.filter.Seconds())
		trn.Add(p.train.Seconds())
		evl.Add(p.eval.Seconds())
		if i%2 == 1 {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
	}
	res.Attempted = len(passes)
	res.Set("answer_p50_ms", res.perMChange(total.Percentile(50)), "ms", total.N())
	res.Set("batch_changes_per_s", float64(cube.NumChanges())/(total.Percentile(50)/1000), "1/s", total.N())
	res.SetPct("filter.apply_s", &fil, 50, "s")
	res.SetPct("core.train_s", &trn, 50, "s")
	res.SetPct("eval.table1_s", &evl, 50, "s")
	if rec != nil {
		res.Set("perfbench.trace_overhead_p50_ms", median(traced)-median(untraced), "ms", len(traced))
		var self Samples
		selfT := SelfTimes(rec.Spans())
		for _, s := range rec.Spans() {
			if s.Parent == 0 {
				self.AddDuration(selfT[s.ID], time.Millisecond)
			}
		}
		res.Notef("accounting (p50s): filter %.3f s + train %.3f s + eval %.3f s = %.3f s; pass %.3f s; traced pass self time outside the three calls %.3f ms",
			fil.Percentile(50), trn.Percentile(50), evl.Percentile(50),
			fil.Percentile(50)+trn.Percentile(50)+evl.Percentile(50), total.Percentile(50)/1000, self.Percentile(50))
		if err := rec.WriteFile(spanFile(o)); err != nil {
			return err
		}
	}
	// Stage times are per pass: the pass count varies with speed.
	stages := map[string]float64{}
	for _, p := range passes {
		recordTrainStages(stages, p.report)
	}
	for k := range stages {
		stages[k] /= float64(len(passes))
	}
	setTrainStages(res, stages)
	res.Notef("corpus: filtered_fields=%d", passes[0].filtered)

	checkTable1(res, o.Seed, passes)
	return nil
}

// checkTable1 checks that every pass produced the same Table 1 and model
// bytes, that they match the pin for the seed when one exists, and that
// the OR ensemble's 7-day precision clears the floor.
func checkTable1(res *Result, seed int64, passes []pass) {
	first := passes[0].out
	for i, p := range passes[1:] {
		if !reflect.DeepEqual(p.out, first) {
			res.Checkf("pass %d: Table 1 or model hash differs from pass 0", i+1)
		}
	}
	k, ok := orKey(first.Table1)
	switch {
	case !ok:
		res.Checkf("no OR ensemble row at 7 days in Table 1")
	case first.Table1[k].Precision < minORPrecision:
		res.Checkf("%s precision %.4f below %.2f", k, first.Table1[k].Precision, minORPrecision)
	default:
		res.Notef("table1: %s precision %.4f recall %.4f predictions %d; model sha256 %s",
			k, first.Table1[k].Precision, first.Table1[k].Recall, first.Table1[k].Predictions, first.ModelSHA256)
	}
	var pins map[string]Pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		res.Checkf("pins.json: %v", err)
		return
	}
	pin, ok := pins[strconv.FormatInt(seed, 10)]
	if !ok {
		res.Notef("table1: seed %d has no pin; checked repetition and the OR floor only", seed)
		return
	}
	if !reflect.DeepEqual(pin, first) {
		res.Checkf("seed %d: Table 1 or model hash differs from the pinned values", seed)
		return
	}
	res.Notef("table1: matches the pin for seed %d", seed)
}

// printPins runs one pass per listed seed and prints the pins as JSON.
func printPins(seeds string) error {
	pins := map[string]Pin{}
	for _, f := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", f)
		}
		cube, _, err := generate(seed, newResult())
		if err != nil {
			return err
		}
		p, err := runPass(cube, nil, nil)
		if err != nil {
			return err
		}
		pins[strconv.FormatInt(seed, 10)] = p.out
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
