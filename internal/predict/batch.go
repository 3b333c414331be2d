// Batches: the evaluation protocol asks every predictor the same question
// for every tumbling window of a size — 430 windows per field per
// evaluation year. A WindowSet converts each relevant field's change days
// into a per-window changed row with one sorted merge, and a predictor
// answers all windows of one size for one target in a single
// PredictWindows call. A deployment scan or an audit asks the same
// question for one arbitrary window; OneWindow builds that batch directly
// over the histories, so both questions reach the same predictor code.
//
// Leakage control is part of the batch: FieldChanged returns an all-false
// row for the target, and TargetDaysBefore exposes only the prefix of the
// target's history strictly before the window start, so a predictor can
// never observe the very change it is asked to predict.
package predict

import (
	"fmt"
	"sort"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/par"
	"github.com/wikistale/wikistale/internal/timeline"
)

// rowSet holds per-window changed rows for one window size: rows[f][i]
// reports whether field f changed inside window i, unclamped. It is the
// shared currency of ground truth and (non-target) predictor evidence.
type rowSet struct {
	windows []timeline.Window
	size    int
	start   timeline.Day
	rows    map[changecube.FieldKey][]bool
}

func newRowSet(split timeline.Span, size int) *rowSet {
	return &rowSet{
		windows: timeline.Tumbling(split, size),
		size:    size,
		start:   split.Start,
		rows:    make(map[changecube.FieldKey][]bool),
	}
}

// computeRow merges a history's change days into per-window changed flags:
// one History.In call (two binary searches) plus a linear pass, instead of
// one binary search per window.
func (rs *rowSet) computeRow(h changecube.History) []bool {
	row := make([]bool, len(rs.windows))
	end := rs.start + timeline.Day(len(rs.windows)*rs.size)
	for _, d := range h.In(timeline.Span{Start: rs.start, End: end}) {
		row[int(d-rs.start)/rs.size] = true
	}
	return row
}

// RowIndex is an immutable, concurrency-safe precomputation of the
// per-window changed rows of every field of a history set, for one split
// and a list of window sizes. Grid searches build it once and share it
// across grid points through eval.Options, so the ground-truth merge work
// is not repeated per point.
type RowIndex struct {
	observed *changecube.HistorySet
	split    timeline.Span
	bySize   map[int]*rowSet
}

// rowGrain is how many fields a goroutine claims at a time when
// precomputing rows; a row is two binary searches and a short merge, so
// claims are batched to amortize the shared counter.
const rowGrain = 256

// PrecomputeRows eagerly computes the window rows of every field in
// observed over the split's tumbling windows at each size. The work is
// parallelized across fields; the result is read-only and safe for
// concurrent use by any number of evaluations.
func PrecomputeRows(observed *changecube.HistorySet, split timeline.Span, sizes []int) *RowIndex {
	idx := &RowIndex{
		observed: observed,
		split:    split,
		bySize:   make(map[int]*rowSet, len(sizes)),
	}
	histories := observed.Histories()
	for _, size := range sizes {
		if size <= 0 || split.Len() < size {
			continue
		}
		if _, dup := idx.bySize[size]; dup {
			continue
		}
		rs := newRowSet(split, size)
		rows := make([][]bool, len(histories))
		par.For(len(histories), rowGrain, func() func(int) {
			return func(i int) { rows[i] = rs.computeRow(histories[i]) }
		})
		for i, h := range histories {
			rs.rows[h.Field] = rows[i]
		}
		idx.bySize[size] = rs
	}
	return idx
}

// Matches reports whether the index was built over the same observed set
// and split — the precondition for reusing it in an evaluation.
func (idx *RowIndex) Matches(observed *changecube.HistorySet, split timeline.Span) bool {
	return idx != nil && idx.observed == observed && idx.split == split
}

// WindowSet answers per-window change queries for the tumbling windows of
// one size over one split. Rows are computed on first use and cached, so
// each field costs one sorted merge regardless of how many windows or
// predictors consult it. A WindowSet is confined to one goroutine; build
// one per evaluation worker (an optional shared RowIndex carries the
// reusable, read-only part).
type WindowSet struct {
	observed *changecube.HistorySet
	split    timeline.Span
	shared   *rowSet // immutable precomputed rows, may be nil
	local    *rowSet // lazily filled, single-goroutine
	falseRow []bool
	// prefixes[i] counts prefixTarget's change days strictly before window
	// i's start; prefixDays holds those days. Both belong to the batch last
	// asked for target days.
	prefixTarget changecube.FieldKey
	prefixDays   []timeline.Day
	prefixes     []int
	// scratch holds the rows lent by Batch.Scratch; the first lent of them
	// are in use.
	scratch [][]bool
	lent    int
}

// NewWindowSet builds the window set for one split and size. shared may be
// nil; when it covers the same observed set, split and size, its
// precomputed rows are used instead of local merges. size must be positive
// and no longer than the split.
func NewWindowSet(observed *changecube.HistorySet, split timeline.Span, size int, shared *RowIndex) *WindowSet {
	if size <= 0 || split.Len() < size {
		panic(fmt.Sprintf("predict: window size %d invalid for split %v", size, split))
	}
	ws := &WindowSet{
		observed: observed,
		split:    split,
		local:    newRowSet(split, size),
	}
	if shared.Matches(observed, split) {
		if rs, ok := shared.bySize[size]; ok {
			ws.shared = rs
		}
	}
	ws.falseRow = make([]bool, len(ws.local.windows))
	return ws
}

// Windows returns the tumbling windows, in order; windows[i].Index == i.
func (ws *WindowSet) Windows() []timeline.Window { return ws.local.windows }

// Size returns the window size in days.
func (ws *WindowSet) Size() int { return ws.local.size }

// Row returns field's unclamped per-window changed row: Row(f)[i] is true
// iff f changed inside window i. For the evaluation harness this is the
// ground truth; predictors must go through Batch.FieldChanged, which
// applies the leakage clamp. The returned slice is shared and must not be
// modified.
func (ws *WindowSet) Row(field changecube.FieldKey) []bool {
	if ws.shared != nil {
		if row, ok := ws.shared.rows[field]; ok {
			return row
		}
	}
	if row, ok := ws.local.rows[field]; ok {
		return row
	}
	h, ok := ws.observed.Get(field)
	if !ok {
		return ws.falseRow
	}
	row := ws.local.computeRow(h)
	ws.local.rows[field] = row
	return row
}

// For returns the leakage-controlled batch for one target field over
// every window of the set.
func (ws *WindowSet) For(target changecube.FieldKey) Batch {
	return Batch{observed: ws.observed, ws: ws, target: target}
}

// targetDaysBefore returns target's change days strictly before window i's
// start. The prefixes for all windows are computed with a single merge the
// first time a target is asked, and kept until another target is.
func (ws *WindowSet) targetDaysBefore(target changecube.FieldKey, i int) []timeline.Day {
	if ws.prefixes == nil || ws.prefixTarget != target {
		windows := ws.Windows()
		if ws.prefixes == nil {
			ws.prefixes = make([]int, len(windows))
		}
		ws.prefixTarget = target
		ws.prefixDays = nil
		h, ok := ws.observed.Get(target)
		if !ok {
			return nil
		}
		days := h.Days()
		ws.prefixDays = days
		p := sort.Search(len(days), func(k int) bool {
			return days[k] >= windows[0].Start
		})
		for j, w := range windows {
			for p < len(days) && days[p] < w.Start {
				p++
			}
			ws.prefixes[j] = p
		}
	}
	if ws.prefixDays == nil {
		return nil
	}
	return ws.prefixDays[:ws.prefixes[i]]
}

// One-element rows shared by every one-window batch.
var (
	changedRow   = []bool{true}
	unchangedRow = []bool{false}
)

// Batch is the leakage-controlled view of one target field over a set of
// windows: every tumbling window of a WindowSet, or the single window of
// OneWindow. It is confined to the goroutine that built it, and is kept to
// four words because every predictor call passes it by value.
type Batch struct {
	observed *changecube.HistorySet
	ws       *WindowSet    // nil for a one-window batch
	span     timeline.Span // the window of a one-window batch
	target   changecube.FieldKey
}

// OneWindow returns the batch asking whether target should have changed
// within the single span, which need not be aligned to any tumbling grid;
// its window has index 0. It allocates nothing: FieldChanged answers with
// shared one-element rows, and TargetDaysBefore slices the target's
// history at the span start.
func OneWindow(observed *changecube.HistorySet, target changecube.FieldKey, span timeline.Span) Batch {
	return Batch{observed: observed, span: span, target: target}
}

// Target returns the field under prediction.
func (b Batch) Target() changecube.FieldKey { return b.target }

// NumWindows returns the number of windows (the required length of the out
// slice passed to PredictWindows).
func (b Batch) NumWindows() int {
	if b.ws == nil {
		return 1
	}
	return len(b.ws.Windows())
}

// Window returns window i of the batch.
func (b Batch) Window(i int) timeline.Window {
	if b.ws == nil {
		return timeline.Window{Span: b.span}
	}
	return b.ws.Windows()[i]
}

// WindowSize returns the common size of the windows in days.
func (b Batch) WindowSize() int {
	if b.ws == nil {
		return b.span.Len()
	}
	return b.ws.Size()
}

// Cube returns the schema metadata (templates, pages, dictionaries).
func (b Batch) Cube() *changecube.Cube { return b.observed.Cube() }

// FieldChanged returns field's per-window changed row under the leakage
// clamp: for any field other than the target, row[i] reports a change
// inside window i, which is visible because related fields were updated
// correctly; for the target itself the row is all false, because the
// target is only visible before each window start and a window never
// overlaps the days before its own start. The returned slice is shared and
// must not be modified.
func (b Batch) FieldChanged(field changecube.FieldKey) []bool {
	if b.ws != nil {
		if field == b.target {
			return b.ws.falseRow
		}
		return b.ws.Row(field)
	}
	if field != b.target {
		if h, ok := b.observed.Get(field); ok && h.ChangedIn(b.span) {
			return changedRow
		}
	}
	return unchangedRow
}

// TargetDaysBefore returns the target's change days strictly before window
// i's start — the only view of the target a predictor may use. The
// returned slice may alias the history's storage and must not be modified.
func (b Batch) TargetDaysBefore(i int) []timeline.Day {
	if b.ws != nil {
		return b.ws.targetDaysBefore(b.target, i)
	}
	h, ok := b.observed.Get(b.target)
	if !ok {
		return nil
	}
	return h.Before(b.span.Start)
}

// Scratch lends a row of NumWindows() elements that stays the caller's
// until the matching Release; rows lent and not yet released are distinct,
// so nested ensembles may each hold one. The rows belong to the batch's
// WindowSet and are reused across targets, so combining member rows
// allocates nothing. Only a WindowSet batch lends rows: a one-window
// batch has none to lend, and its callers combine verdicts in place.
func (b Batch) Scratch() []bool {
	ws := b.ws
	if ws.lent == len(ws.scratch) {
		ws.scratch = append(ws.scratch, make([]bool, len(ws.Windows())))
	}
	row := ws.scratch[ws.lent]
	ws.lent++
	return row
}

// Release returns the row most recently lent by Scratch.
func (b Batch) Release() { b.ws.lent-- }
