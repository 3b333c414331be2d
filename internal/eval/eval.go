// Package eval implements the paper's evaluation protocol (§5.1): the
// filtered dataset is split along the time axis; predictions are made for
// every eligible field in every tumbling window of each granularity (365
// one-day, 52 seven-day, 12 thirty-day and 1 yearly window per evaluation
// year — 430 predictions per field); a prediction counts as a true
// positive when the field really changed inside the window. The harness
// also produces the per-week precision/recall series of Figure 4 and the
// prediction-overlap analysis of §5.3.4.
package eval

import (
	"fmt"
	"sync"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/par"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Counts is a binary-classification tally.
type Counts struct {
	TP, FP, FN, TN int
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.TP += other.TP
	c.FP += other.FP
	c.FN += other.FN
	c.TN += other.TN
}

// Precision returns TP/(TP+FP), or 0 when nothing was predicted.
func (c Counts) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when nothing changed.
func (c Counts) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Predictions returns the number of positive predictions (TP+FP), the
// absolute count the paper reports alongside precision and recall.
func (c Counts) Predictions() int { return c.TP + c.FP }

// Changed returns the number of windows containing changes (TP+FN).
func (c Counts) Changed() int { return c.TP + c.FN }

// OverlapCounts tallies how two predictors' positive predictions relate.
type OverlapCounts struct {
	Both  int // predicted by both
	OnlyA int
	OnlyB int
}

// FractionA returns the share of A's predictions that B also made.
func (o OverlapCounts) FractionA() float64 {
	if o.Both+o.OnlyA == 0 {
		return 0
	}
	return float64(o.Both) / float64(o.Both+o.OnlyA)
}

// FractionB returns the share of B's predictions that A also made.
func (o OverlapCounts) FractionB() float64 {
	if o.Both+o.OnlyB == 0 {
		return 0
	}
	return float64(o.Both) / float64(o.Both+o.OnlyB)
}

// Options tunes an evaluation run.
type Options struct {
	// Sizes are the window sizes in days (default timeline.StandardSizes).
	Sizes []int
	// OverTimeSize, when non-zero, collects per-window Counts at this
	// window size (7 for the paper's Figure 4).
	OverTimeSize int
	// OverlapPairs lists predictor index pairs whose positive predictions
	// should be cross-tabulated (§5.3.4).
	OverlapPairs [][2]int
	// ByTemplateSize, when non-zero, additionally groups counts by the
	// target field's infobox template at this window size — the
	// drill-down view for diagnosing which templates drive precision
	// loss.
	ByTemplateSize int
	// Rows optionally supplies precomputed per-window change rows built by
	// predict.PrecomputeRows over the same observed set and split. Grid
	// searches share one index across grid points so the ground-truth
	// merges are not repeated per point.
	Rows *predict.RowIndex
}

// Report is the outcome of one evaluation run.
type Report struct {
	// Split is the evaluated day span.
	Split timeline.Span
	// Predictors lists the predictor names in evaluation order.
	Predictors []string
	// BySize maps predictor name -> window size -> counts.
	BySize map[string]map[int]Counts
	// OverTime maps predictor name -> counts per window index, at
	// Options.OverTimeSize (nil when not collected).
	OverTime map[string][]Counts
	// ByTemplate maps predictor name -> template id -> counts at
	// Options.ByTemplateSize (nil when not collected).
	ByTemplate map[string]map[changecube.TemplateID]Counts
	// Overlaps maps OverlapKey(nameA, nameB, size) — "nameA|nameB/size" —
	// to overlap counts, tallied separately for each evaluated window
	// size.
	Overlaps map[string]OverlapCounts
	// Fields is the number of evaluated fields (the eligibility universe).
	Fields int
}

// OverlapKey builds the Overlaps map key for a predictor pair at a size.
func OverlapKey(a, b string, size int) string {
	return fmt.Sprintf("%s|%s/%d", a, b, size)
}

// evalChunks is how many runs of fields an evaluation is cut into.
const evalChunks = 64

// Evaluate runs every predictor over every field and window of the split.
// The observed set plays two roles, exactly as in the paper: it is the
// leakage-controlled evidence predictors may consult (enforced by
// predict.Batch), and its histories are the ground truth.
func Evaluate(observed *changecube.HistorySet, split timeline.Span, predictors []predict.Predictor, opts Options) (*Report, error) {
	if len(predictors) == 0 {
		return nil, fmt.Errorf("eval: no predictors")
	}
	sizes := opts.Sizes
	if len(sizes) == 0 {
		sizes = timeline.StandardSizes
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("eval: invalid window size %d", s)
		}
		if split.Len() < s {
			return nil, fmt.Errorf("eval: split %v shorter than window size %d", split, s)
		}
	}
	// The per-window sections are only filled for sizes that are actually
	// evaluated; silently returning all-zero series for a size outside
	// Sizes has bitten callers, so reject the combination outright.
	if opts.OverTimeSize > 0 && !containsSize(sizes, opts.OverTimeSize) {
		return nil, fmt.Errorf("eval: OverTimeSize %d not among evaluated sizes %v", opts.OverTimeSize, sizes)
	}
	if opts.ByTemplateSize > 0 && !containsSize(sizes, opts.ByTemplateSize) {
		return nil, fmt.Errorf("eval: ByTemplateSize %d not among evaluated sizes %v", opts.ByTemplateSize, sizes)
	}
	for _, pair := range opts.OverlapPairs {
		if pair[0] < 0 || pair[0] >= len(predictors) || pair[1] < 0 || pair[1] >= len(predictors) {
			return nil, fmt.Errorf("eval: overlap pair %v out of range", pair)
		}
		if pair[0] == pair[1] {
			return nil, fmt.Errorf("eval: overlap pair %v compares a predictor with itself", pair)
		}
	}
	if opts.Rows != nil && !opts.Rows.Matches(observed, split) {
		return nil, fmt.Errorf("eval: Options.Rows was precomputed for a different observed set or split")
	}
	names := make([]string, len(predictors))
	seen := make(map[string]bool)
	for i, p := range predictors {
		names[i] = p.Name()
		if seen[names[i]] {
			return nil, fmt.Errorf("eval: duplicate predictor name %q", names[i])
		}
		seen[names[i]] = true
	}

	histories := observed.Histories()
	windowsBySize := make(map[int][]timeline.Window, len(sizes))
	for _, s := range sizes {
		windowsBySize[s] = timeline.Tumbling(split, s)
	}

	// The fields are cut into evalChunks contiguous runs, so a page's
	// fields, whose rows are each other's evidence, are scored by one
	// goroutine. Each goroutine taking part keeps its own window sets
	// across its runs and tallies into its own partial report; the
	// partials are integer sums, merged below in any order.
	span := obs.StartSpan("eval/evaluate")
	chunks := min(evalChunks, len(histories))
	var mu sync.Mutex
	var partials []*Report
	par.For(chunks, 1, func() func(int) {
		part := newReport(split, names, opts, windowsBySize)
		mu.Lock()
		partials = append(partials, part)
		mu.Unlock()
		sets := make(map[int]*predict.WindowSet, len(sizes))
		return func(c int) {
			lo, hi := c*len(histories)/chunks, (c+1)*len(histories)/chunks
			evalChunk(part, sets, observed, histories[lo:hi], predictors, names, sizes, opts)
		}
	})
	span.End()

	report := newReport(split, names, opts, windowsBySize)
	report.Fields = len(histories)
	for _, part := range partials {
		for name, bySize := range part.BySize {
			for size, c := range bySize {
				total := report.BySize[name][size]
				total.Add(c)
				report.BySize[name][size] = total
			}
		}
		for name, series := range part.OverTime {
			dst := report.OverTime[name]
			for i, c := range series {
				dst[i].Add(c)
			}
		}
		for name, perTemplate := range part.ByTemplate {
			dst := report.ByTemplate[name]
			for template, c := range perTemplate {
				total := dst[template]
				total.Add(c)
				dst[template] = total
			}
		}
		for key, oc := range part.Overlaps {
			total := report.Overlaps[key]
			total.Both += oc.Both
			total.OnlyA += oc.OnlyA
			total.OnlyB += oc.OnlyB
			report.Overlaps[key] = total
		}
	}
	return report, nil
}

func newReport(split timeline.Span, names []string, opts Options, windowsBySize map[int][]timeline.Window) *Report {
	r := &Report{
		Split:      split,
		Predictors: names,
		BySize:     make(map[string]map[int]Counts, len(names)),
		Overlaps:   make(map[string]OverlapCounts),
	}
	for _, n := range names {
		r.BySize[n] = make(map[int]Counts)
	}
	if opts.OverTimeSize > 0 {
		r.OverTime = make(map[string][]Counts, len(names))
		for _, n := range names {
			r.OverTime[n] = make([]Counts, len(windowsBySize[opts.OverTimeSize]))
		}
	}
	if opts.ByTemplateSize > 0 {
		r.ByTemplate = make(map[string]map[changecube.TemplateID]Counts, len(names))
		for _, n := range names {
			r.ByTemplate[n] = make(map[changecube.TemplateID]Counts)
		}
	}
	return r
}

// tallyInto classifies one (prediction, truth) decision into c.
func tallyInto(c *Counts, pred, truth bool) {
	switch {
	case pred && truth:
		c.TP++
	case pred:
		c.FP++
	case truth:
		c.FN++
	default:
		c.TN++
	}
}

func containsSize(sizes []int, s int) bool {
	for _, v := range sizes {
		if v == s {
			return true
		}
	}
	return false
}

// evalChunk scores one chunk of the fields into part. For each window size
// it takes the goroutine's predict.WindowSet from sets, building it on first
// use (per-window change rows, one sorted merge per field), and asks every
// predictor for a whole row of predictions at once.
func evalChunk(part *Report, sets map[int]*predict.WindowSet, observed *changecube.HistorySet,
	chunk []changecube.History, predictors []predict.Predictor, names []string, sizes []int, opts Options) {

	cube := observed.Cube()
	rows := make([][]bool, len(predictors))
	for _, size := range sizes {
		ws := sets[size]
		if ws == nil {
			ws = predict.NewWindowSet(observed, part.Split, size, opts.Rows)
			sets[size] = ws
		}
		n := len(ws.Windows())
		for i := range rows {
			if cap(rows[i]) < n {
				rows[i] = make([]bool, n)
			} else {
				rows[i] = rows[i][:n]
			}
		}
		collectOverTime := size == opts.OverTimeSize && part.OverTime != nil
		collectTemplate := size == opts.ByTemplateSize && part.ByTemplate != nil
		for _, h := range chunk {
			truth := ws.Row(h.Field)
			batch := ws.For(h.Field)
			for i, p := range predictors {
				row := rows[i]
				p.PredictWindows(batch, row)
				var c Counts
				if collectOverTime {
					series := part.OverTime[names[i]]
					for j := 0; j < n; j++ {
						tallyInto(&c, row[j], truth[j])
						tallyInto(&series[j], row[j], truth[j])
					}
				} else {
					for j := 0; j < n; j++ {
						tallyInto(&c, row[j], truth[j])
					}
				}
				total := part.BySize[names[i]][size]
				total.Add(c)
				part.BySize[names[i]][size] = total
				if collectTemplate {
					template := cube.Template(h.Field.Entity)
					tc := part.ByTemplate[names[i]][template]
					tc.Add(c)
					part.ByTemplate[names[i]][template] = tc
				}
			}
			for _, pair := range opts.OverlapPairs {
				ra, rb := rows[pair[0]], rows[pair[1]]
				var oc OverlapCounts
				for j := 0; j < n; j++ {
					switch {
					case ra[j] && rb[j]:
						oc.Both++
					case ra[j]:
						oc.OnlyA++
					case rb[j]:
						oc.OnlyB++
					}
				}
				if oc.Both+oc.OnlyA+oc.OnlyB == 0 {
					continue
				}
				key := OverlapKey(names[pair[0]], names[pair[1]], size)
				total := part.Overlaps[key]
				total.Both += oc.Both
				total.OnlyA += oc.OnlyA
				total.OnlyB += oc.OnlyB
				part.Overlaps[key] = total
			}
		}
	}
}
