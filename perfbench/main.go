// Command perfbench is the repository benchmark. It assembles the
// stale-data service in-process from the same public constructors
// cmd/staleserve uses, drives one named workload with inputs made from a
// seed, checks the outputs, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
//
// It exits non-zero when an output check fails or when the load
// generator ran too late for the run to be valid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees; --trace 0 prints
// them. Every workload reports each of them. answer_p50_ms is the wait
// of the workload's user for an answer: an HTTP request from its
// scheduled send (serve_hot, serve_sweep), an edit from entering the feed
// to being served (serve_live), or one filter → train → Table-1 pass
// (batch_table1). The corpus size varies by a tenth between seeds, so
// figures whose cost grows with it are stated per million raw changes:
// the heap everywhere, and the answer on serve_sweep and batch_table1.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"answer_p50_ms", "ms"},
	{"heap_peak_mb_per_mchange", "MB/Mchange"},
}

// perLayer are the single-layer metrics --trace 1 prints, followed by
// the end-to-end readings that are too unsteady or too specific to one
// workload to carry a bound. A workload that does not exercise a layer
// reports 0 for it.
var perLayer = []metricSpec{
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"req_error_frac", "fraction"},
	{"e2a_p50_s", "s"},
	{"e2a_p95_s", "s"},
	{"restart_s", "s"},
	{"batch_changes_per_s", "1/s"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.queue_wait_p99_ms", "ms"},
	{"http.self_p50_us", "us"},
	{"http.self_p99_us", "us"},
	{"staleserve.handler_p50_us", "us"},
	{"staleserve.handler_p99_us", "us"},
	{"staleserve.stale_handler_p50_ms", "ms"},
	{"staleserve.cache_hit_frac", "fraction"},
	{"staleserve.swap_ms_p50", "ms"},
	{"core.detect_stale_ms_p50", "ms"},
	{"core.detect_stale_ms_p99", "ms"},
	{"ingest.feed_late_p99_ms", "ms"},
	{"ingest.consume_ms_p99", "ms"},
	{"ingest.retrain_s_p50", "s"},
	{"ingest.pages_retrained_frac", "fraction"},
	{"core.train_stage_s.filter", "s"},
	{"core.train_stage_s.correlation", "s"},
	{"core.train_stage_s.assocrules", "s"},
	{"core.train_stage_s.seasonal", "s"},
	{"core.train_stage_s.familycorr", "s"},
	{"core.train_stage_s.threshold", "s"},
	{"core.train_stage_s.ensembles", "s"},
	{"epochstore.snapshot_ms_p50", "ms"},
	{"epochstore.load_ms", "ms"},
	{"filter.apply_s", "s"},
	{"core.train_s", "s"},
	{"eval.table1_s", "s"},
	{"dataset.generate_s", "s"},
	{"runtime.gc_pause_p99_ms", "ms"},
	{"runtime.sched_latency_p99_ms", "ms"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"perfbench.trace_overhead_p50_ms", "ms"},
}

// Metric is one measured value. N is the sample count behind a
// percentile or median (0 when the value is not one).
type Metric struct {
	Value float64
	Unit  string
	N     int
}

// MarshalJSON writes an infinite value, a percentile that fell on a
// failure, as the string "+Inf".
func (m Metric) MarshalJSON() ([]byte, error) {
	type plain Metric
	if math.IsInf(m.Value, 1) {
		return json.Marshal(struct {
			Value string
			Unit  string
			N     int
		}{"+Inf", m.Unit, m.N})
	}
	return json.Marshal(plain(m))
}

// Result collects one run's metrics, counts and check outcomes.
type Result struct {
	Metrics   map[string]Metric
	Attempted int
	Failed    int
	// RawChanges is the size of the generated corpus.
	RawChanges int
	// CheckFailures lists every output check that did not hold.
	CheckFailures []string
	// Invalid, when set, says why the load generator could not offer
	// the scheduled load; such a run reports no numbers.
	Invalid string
	// Notes are context lines printed with the report.
	Notes []string
}

func newResult() *Result { return &Result{Metrics: map[string]Metric{}} }

// Set records a metric.
func (r *Result) Set(name string, v float64, unit string, n int) {
	r.Metrics[name] = Metric{Value: v, Unit: unit, N: n}
}

// SetPct records the p-th percentile of s in the given unit.
func (r *Result) SetPct(name string, s *Samples, p float64, unit string) {
	r.Set(name, s.Percentile(p), unit, s.N())
}

// SetHeap records the peak live heap, raw and per million raw changes.
func (r *Result) SetHeap(mb float64) {
	r.Set("heap_peak_mb", mb, "MB", 0)
	r.Set("heap_peak_mb_per_mchange", r.perMChange(mb), "MB/Mchange", 0)
}

// perMChange states v per million raw changes of the corpus.
func (r *Result) perMChange(v float64) float64 { return v * 1e6 / float64(max(r.RawChanges, 1)) }

// Checkf records a failed output check.
func (r *Result) Checkf(format string, args ...any) {
	r.CheckFailures = append(r.CheckFailures, fmt.Sprintf(format, args...))
}

// Notef records a context line.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Options are the command-line settings of one run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	OutDir   string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(Options, *Result) error{
	"serve_hot":    runServeHot,
	"serve_sweep":  runServeSweep,
	"serve_live":   runServeLive,
	"batch_table1": runBatchTable1,
}

func main() {
	var o Options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload to run: serve_hot, serve_live, serve_sweep or batch_table1")
	flag.Int64Var(&o.Seed, "seed", 1, "seed for the corpus, the request streams and the sweep keys")
	flag.Float64Var(&o.Seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	flag.StringVar(&o.OutDir, "out", ".bench_build/perfbench", "directory for span and result files")
	pin := flag.String("pin", "", "print the batch_table1 pins for a comma-separated list of seeds and exit")
	flag.Parse()
	o.Trace = trace == 1

	// The service logs every request and swap at info level; the
	// benchmark measures the service, not its log sink.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	if *pin != "" {
		if err := printPins(*pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[o.Workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.Workload)
		os.Exit(2)
	}
	if o.Seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	res := newResult()
	stampContext(o, res)
	if err := run(o, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.Workload, err)
		os.Exit(1)
	}
	printReport(os.Stdout, res)
	if err := writeResultFile(o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result file:", err)
	}
	switch {
	case res.Invalid != "":
		fmt.Fprintf(os.Stderr, "perfbench: invalid run: %s\n", res.Invalid)
		os.Exit(3)
	case len(res.CheckFailures) > 0:
		fmt.Fprintf(os.Stderr, "perfbench: %d output check(s) failed\n", len(res.CheckFailures))
		os.Exit(4)
	}
	line, err := resultLine(o, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// stampContext records the machine and input context every result
// carries.
func stampContext(o Options, res *Result) {
	res.Notef("context: workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s",
		o.Workload, o.Seed, o.Seconds, o.Trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), envOr("PERFBENCH_COMMIT", "unknown"), envOr("PERFBENCH_SOURCE", "unknown"))
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// printReport writes every metric the run produced, with unit and
// sample count, followed by the notes and any failed checks.
func printReport(w io.Writer, res *Result) {
	for _, n := range res.Notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		if m.N > 0 {
			fmt.Fprintf(w, "metric %-34s %14.6f %-8s n=%d\n", name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "metric %-34s %14.6f %s\n", name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, c := range res.CheckFailures {
		fmt.Fprintln(w, "CHECK FAILED:", c)
	}
}

// resultLine renders the final JSON line: the end-to-end metrics, or
// the per-layer ones for a traced run.
func resultLine(o Options, res *Result) (string, error) {
	specs := endToEnd
	if o.Trace {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		if !ok && !o.Trace {
			return "", fmt.Errorf("workload %s did not measure %s", o.Workload, s.Name)
		}
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			return "", fmt.Errorf("metric %s is %v", s.Name, m.Value)
		}
		out.Metrics[s.Name] = value{Value: m.Value, Unit: s.Unit}
	}
	if out.Attempted < 1 {
		return "", fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// writeResultFile records the run's context, every metric with its
// sample count, and the check outcomes as JSON in the output directory.
func writeResultFile(o Options, res *Result) error {
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", o.Workload, o.Seed, o.Trace, time.Now().Unix())
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.OutDir, name), append(b, '\n'), 0o644)
}
