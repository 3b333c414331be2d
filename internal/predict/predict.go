// Package predict defines the prediction protocol shared by all change
// predictors: the question asked ("should field f have changed within
// window w?") and the leakage-controlled view of the data a predictor may
// consult while answering. Following the paper's §5.1, a predictor sees the
// target field's changes only up to the window start — simulating the one
// forgotten edit — while other fields are visible through the window end,
// because related fields were updated correctly.
//
// The view is a Batch: the question for every tumbling window of one size
// (the evaluation protocol), or for a single window (a deployment scan or
// an audit), built by OneWindow. Every predictor answers both through its
// one PredictWindows method.
package predict

// Predictor answers the paper's prediction question. Implementations are
// trained ahead of time.
type Predictor interface {
	// Name identifies the predictor in reports ("field correlations",
	// "association rules", ...).
	Name() string
	// PredictWindows sets out[i] to whether the target should have changed
	// within window i of the batch; len(out) equals b.NumWindows() and out
	// may hold stale values from a previous call. It must be safe for
	// concurrent use as long as distinct goroutines pass distinct batches.
	PredictWindows(b Batch, out []bool)
}

// Func adapts a per-window function to the Predictor interface, mainly
// for tests.
type Func struct {
	PredictorName string
	Fn            func(b Batch, i int) bool
}

// Name implements Predictor.
func (f Func) Name() string { return f.PredictorName }

// PredictWindows implements Predictor by asking Fn once per window.
func (f Func) PredictWindows(b Batch, out []bool) {
	for i := range out {
		out[i] = f.Fn(b, i)
	}
}
