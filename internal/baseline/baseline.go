// Package baseline implements the paper's two comparison predictors
// (§5.2): the mean baseline, a regressor that schedules the next change at
// the field's mean inter-change interval, and the threshold baseline,
// which predicts every window of a size for fields that changed in at
// least a threshold share of same-size windows during the validation year.
package baseline

import (
	"fmt"
	"math"
	"sort"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Mean is the mean baseline. It is stateless: the mean inter-change gap is
// recomputed from the target's visible history at prediction time, so the
// estimate always uses all changes before the window start.
type Mean struct{}

var _ predict.Predictor = Mean{}

// Name implements predict.Predictor.
func (Mean) Name() string { return "mean baseline" }

// PredictWindows implements predict.Predictor. For window i it
// extrapolates the field's next change from its changes before the window
// start: with mean gap n, the next changes are scheduled at last + n,
// last + 2n, ...; the window fires when the first of them at or after its
// start falls inside it. A history too short or degenerate to extrapolate
// from never fires. The per-window target prefixes come from the batch.
func (Mean) PredictWindows(b predict.Batch, out []bool) {
	for i := range out {
		days, w := b.TargetDaysBefore(i), b.Window(i)
		out[i] = false
		if len(days) < 2 {
			continue
		}
		last := float64(days[len(days)-1])
		n := (last - float64(days[0])) / float64(len(days)-1)
		if n <= 0 {
			continue
		}
		// Smallest k >= 1 with last + k*n >= w.Start.
		k := math.Ceil((float64(w.Start) - last) / n)
		if k < 1 {
			k = 1
		}
		out[i] = last+k*n < float64(w.End)
	}
}

// Threshold is the threshold baseline. For every window size it remembers
// the fields that changed in at least Fraction of the validation windows
// of that size and predicts a change in every test window for exactly
// those fields.
type Threshold struct {
	// always[size] holds the fields predicted for every window of size.
	always map[int]map[changecube.FieldKey]bool
}

var _ predict.Predictor = (*Threshold)(nil)

// TrainThreshold scans the validation span once per window size. The paper
// uses fraction = 0.85 (the precision target) and the 365-day validation
// set; e.g. a field changing in at least 45 of the 52 seven-day validation
// windows is predicted for every 7-day test window.
func TrainThreshold(hs *changecube.HistorySet, valSpan timeline.Span, sizes []int, fraction float64) (*Threshold, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("baseline: fraction %v out of (0,1]", fraction)
	}
	t := &Threshold{always: make(map[int]map[changecube.FieldKey]bool, len(sizes))}
	for _, size := range sizes {
		windows := timeline.Tumbling(valSpan, size)
		need := int(math.Ceil(fraction * float64(len(windows))))
		if need < 1 {
			need = 1
		}
		set := make(map[changecube.FieldKey]bool)
		if len(windows) > 0 {
			for _, h := range hs.Histories() {
				changed := 0
				for _, w := range windows {
					if h.ChangedIn(w.Span) {
						changed++
					}
				}
				if changed >= need {
					set[h.Field] = true
				}
			}
		}
		t.always[size] = set
	}
	return t, nil
}

// Name implements predict.Predictor.
func (t *Threshold) Name() string { return "threshold baseline" }

// PredictWindows implements predict.Predictor: one set lookup decides
// every window of the size at once; a size never trained never fires.
func (t *Threshold) PredictWindows(b predict.Batch, out []bool) {
	v := t.always[b.WindowSize()][b.Target()]
	for i := range out {
		out[i] = v
	}
}

// AlwaysPredicted returns how many fields are unconditionally predicted at
// the given window size.
func (t *Threshold) AlwaysPredicted(size int) int { return len(t.always[size]) }

// SizeFields pairs a window size with the fields unconditionally predicted
// at that size, the serializable unit of the threshold baseline.
type SizeFields struct {
	Size   int
	Fields []changecube.FieldKey
}

// Export returns the trained always-predict sets in deterministic order.
func (t *Threshold) Export() []SizeFields {
	var out []SizeFields
	for size, set := range t.always {
		sf := SizeFields{Size: size}
		for field := range set {
			sf.Fields = append(sf.Fields, field)
		}
		sort.Slice(sf.Fields, func(i, j int) bool {
			a, b := sf.Fields[i], sf.Fields[j]
			if a.Entity != b.Entity {
				return a.Entity < b.Entity
			}
			return a.Property < b.Property
		})
		out = append(out, sf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size < out[j].Size })
	return out
}

// ThresholdFromSets reconstructs a threshold baseline from exported sets.
func ThresholdFromSets(sets []SizeFields) *Threshold {
	t := &Threshold{always: make(map[int]map[changecube.FieldKey]bool, len(sets))}
	for _, sf := range sets {
		m := make(map[changecube.FieldKey]bool, len(sf.Fields))
		for _, f := range sf.Fields {
			m[f] = true
		}
		t.always[sf.Size] = m
	}
	return t
}
