package core

import (
	"fmt"

	"github.com/wikistale/wikistale/internal/assocrules"
	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/correlation"
	"github.com/wikistale/wikistale/internal/eval"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/par"
	"github.com/wikistale/wikistale/internal/predict"
)

// ThetaResult is one grid point of the correlation-threshold search
// (§5.2): the predictor is trained on the training split and scored on the
// validation split.
type ThetaResult struct {
	Theta    float64
	NumRules int
	Counts   eval.Counts
}

// runGrid evaluates n independent grid points as one par.For loop, one
// point per chunk. A point's training and evaluation loops nest inside it
// and share the same budget. Results land at their point's index, so the
// output order is the grid order regardless of scheduling; the first error
// (by index) wins.
func runGrid(n int, point func(i int) error) error {
	errs := make([]error, n)
	par.For(n, 1, func() func(int) {
		return func(i int) { errs[i] = point(i) }
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// GridSearchTheta sweeps the correlation error threshold θ, evaluating
// each candidate on the validation year at the given window size (the
// paper tunes on daily windows). The base config supplies the remaining
// correlation settings. Grid points run concurrently on the shared
// training budget; the ground-truth window rows of the validation split
// are precomputed once and shared read-only across all points.
func GridSearchTheta(hs *changecube.HistorySet, splits Splits, thetas []float64,
	base correlation.Config, windowSize int) ([]ThetaResult, error) {
	if len(thetas) == 0 {
		return nil, fmt.Errorf("core: empty theta grid")
	}
	span := obs.StartSpan("grid/theta")
	defer span.End()
	rows := predict.PrecomputeRows(hs, splits.Validation, []int{windowSize})
	results := make([]ThetaResult, len(thetas))
	err := runGrid(len(thetas), func(i int) error {
		cfg := base
		cfg.Theta = thetas[i]
		p, err := correlation.Train(hs, splits.Train, cfg)
		if err != nil {
			return fmt.Errorf("core: theta %v: %w", thetas[i], err)
		}
		report, err := eval.Evaluate(hs, splits.Validation, []predict.Predictor{p},
			eval.Options{Sizes: []int{windowSize}, Rows: rows})
		if err != nil {
			return fmt.Errorf("core: theta %v: %w", thetas[i], err)
		}
		results[i] = ThetaResult{
			Theta:    thetas[i],
			NumRules: p.NumRules(),
			Counts:   report.BySize[p.Name()][windowSize],
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// BestTheta returns the grid point with the highest recall among those
// meeting the target precision, mirroring the paper's selection rule. The
// boolean is false when no point qualifies.
func BestTheta(results []ThetaResult, targetPrecision float64) (ThetaResult, bool) {
	best := ThetaResult{}
	found := false
	for _, r := range results {
		if r.Counts.Precision() < targetPrecision {
			continue
		}
		if !found || r.Counts.Recall() > best.Counts.Recall() {
			best = r
			found = true
		}
	}
	return best, found
}

// AprioriResult is one grid point of the association-rule search (§5.2).
type AprioriResult struct {
	MinSupport         float64
	MinConfidence      float64
	ValidationFraction float64
	NumRules           int
	Counts             eval.Counts
}

// GridSearchApriori sweeps min-support, min-confidence and the size of the
// rule-validation slice, scoring each combination on the validation year.
// Like GridSearchTheta it runs the grid points concurrently and shares the
// precomputed ground-truth window rows across points.
func GridSearchApriori(hs *changecube.HistorySet, splits Splits,
	supports, confidences, valFractions []float64,
	base assocrules.Config, windowSize int) ([]AprioriResult, error) {
	if len(supports) == 0 || len(confidences) == 0 || len(valFractions) == 0 {
		return nil, fmt.Errorf("core: empty apriori grid")
	}
	span := obs.StartSpan("grid/apriori")
	defer span.End()
	type gridPoint struct{ sup, conf, vf float64 }
	var points []gridPoint
	for _, sup := range supports {
		for _, conf := range confidences {
			for _, vf := range valFractions {
				points = append(points, gridPoint{sup: sup, conf: conf, vf: vf})
			}
		}
	}
	rows := predict.PrecomputeRows(hs, splits.Validation, []int{windowSize})
	// The transaction grouping depends only on the span and the period, so
	// one Prepare feeds every grid point.
	pre, err := assocrules.Prepare(hs, splits.Train, base.PeriodDays)
	if err != nil {
		return nil, fmt.Errorf("core: apriori grid: %w", err)
	}
	results := make([]AprioriResult, len(points))
	err = runGrid(len(points), func(i int) error {
		pt := points[i]
		cfg := base
		cfg.MinSupport = pt.sup
		cfg.MinConfidence = pt.conf
		cfg.ValidationFraction = pt.vf
		p, err := assocrules.TrainPrepared(pre, cfg)
		if err != nil {
			return fmt.Errorf("core: apriori grid (%v,%v,%v): %w", pt.sup, pt.conf, pt.vf, err)
		}
		report, err := eval.Evaluate(hs, splits.Validation, []predict.Predictor{p},
			eval.Options{Sizes: []int{windowSize}, Rows: rows})
		if err != nil {
			return err
		}
		results[i] = AprioriResult{
			MinSupport:         pt.sup,
			MinConfidence:      pt.conf,
			ValidationFraction: pt.vf,
			NumRules:           p.NumRules(),
			Counts:             report.BySize[p.Name()][windowSize],
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// BestApriori returns the grid point with the highest recall among those
// meeting the target precision.
func BestApriori(results []AprioriResult, targetPrecision float64) (AprioriResult, bool) {
	best := AprioriResult{}
	found := false
	for _, r := range results {
		if r.Counts.Precision() < targetPrecision {
			continue
		}
		if !found || r.Counts.Recall() > best.Counts.Recall() {
			best = r
			found = true
		}
	}
	return best, found
}
