// Package ensemble combines change predictors by conjunction or
// disjunction (§3.4 of the paper). Because the member predictors are tuned
// to roughly the same precision target, the OR-ensemble boosts recall while
// keeping precision near the members', and the AND-ensemble boosts
// precision at the cost of recall.
package ensemble

import (
	"strings"

	"github.com/wikistale/wikistale/internal/predict"
)

// Or predicts a change when any member predicts one.
type Or struct {
	Members []predict.Predictor
	// Label overrides the derived name when non-empty.
	Label string
}

var _ predict.Predictor = Or{}

// Name implements predict.Predictor.
func (o Or) Name() string {
	if o.Label != "" {
		return o.Label
	}
	return "OR(" + memberNames(o.Members) + ")"
}

// PredictWindows implements predict.Predictor: out[i] is true when any
// member's row is true at i; an empty Or never predicts.
func (o Or) PredictWindows(b predict.Batch, out []bool) {
	combine(o.Members, b, out, true)
}

// And predicts a change only when every member predicts one. An empty And
// never predicts (it has no evidence), unlike the vacuous-truth convention.
type And struct {
	Members []predict.Predictor
	Label   string
}

var _ predict.Predictor = And{}

// Name implements predict.Predictor.
func (a And) Name() string {
	if a.Label != "" {
		return a.Label
	}
	return "AND(" + memberNames(a.Members) + ")"
}

// PredictWindows implements predict.Predictor: out[i] is true when every
// member's row is true at i; an empty And never predicts.
func (a And) PredictWindows(b predict.Batch, out []bool) {
	combine(a.Members, b, out, false)
}

// combine folds the members' rows into out, where decided is the value
// that settles a window once any member yields it: true for OR, false for
// AND. The first member writes out directly. With a single window the
// later members do too, and only while out[0] is undecided — the short
// circuit of a scalar || or &&. With more windows each later member's row
// goes through a scratch row the batch lends.
func combine(members []predict.Predictor, b predict.Batch, out []bool, decided bool) {
	if len(members) == 0 {
		clear(out)
		return
	}
	members[0].PredictWindows(b, out)
	if len(out) == 1 {
		for _, m := range members[1:] {
			if out[0] == decided {
				return
			}
			m.PredictWindows(b, out)
		}
		return
	}
	if len(members) == 1 {
		return
	}
	row := b.Scratch()
	defer b.Release()
	for _, m := range members[1:] {
		m.PredictWindows(b, row)
		for i, v := range row {
			if v == decided {
				out[i] = decided
			}
		}
	}
}

func memberNames(ms []predict.Predictor) string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name()
	}
	return strings.Join(names, ", ")
}

// Paper returns the two ensembles evaluated in the paper over the given
// field-correlation and association-rule predictors, labeled as in
// Table 1.
func Paper(fieldCorr, assocRules predict.Predictor) (and And, or Or) {
	members := []predict.Predictor{fieldCorr, assocRules}
	return And{Members: members, Label: "AND-ensemble"},
		Or{Members: members, Label: "OR-ensemble"}
}
