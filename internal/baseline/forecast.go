package baseline

import (
	"fmt"
	"math"

	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Forecast is the time-series forecasting baseline the paper's
// introduction argues is inapplicable ("most of the data is very sparse
// ... many of the properties that do change frequently have an irregular
// change behavior"). It models each field as a point process with an
// exponentially-weighted daily change rate λ, learned from the gaps
// between the field's past changes, and predicts a change in a window of
// w days when the implied probability 1 − e^{−λw} crosses the threshold.
//
// Its presence in the repository is evidential: on both the paper's data
// and the synthetic corpus it cannot reach the precision target, which is
// the premise of the paper's rule-based design.
type Forecast struct {
	// Alpha is the smoothing factor for the rate estimate, in (0, 1];
	// higher weights recent behavior more.
	Alpha float64
	// Threshold is the change-probability cut above which a window is
	// predicted, in (0, 1).
	Threshold float64
}

var _ predict.Predictor = Forecast{}

// DefaultForecast returns a conventional smoothing configuration.
func DefaultForecast() Forecast {
	return Forecast{Alpha: 0.3, Threshold: 0.5}
}

// Validate checks the configuration.
func (f Forecast) Validate() error {
	if f.Alpha <= 0 || f.Alpha > 1 {
		return fmt.Errorf("baseline: Forecast.Alpha %v out of (0,1]", f.Alpha)
	}
	if f.Threshold <= 0 || f.Threshold >= 1 {
		return fmt.Errorf("baseline: Forecast.Threshold %v out of (0,1)", f.Threshold)
	}
	return nil
}

// Name implements predict.Predictor.
func (Forecast) Name() string { return "forecast baseline" }

// PredictWindows implements predict.Predictor over the per-window target
// prefixes the batch precomputes with a single merge. The rate estimate
// uses only the target's changes before the window start; the elapsed
// quiet time since the last change decays nothing — a constant-rate
// (exponential inter-arrival) model, which is exactly the assumption
// irregular Wikipedia histories break.
func (f Forecast) PredictWindows(b predict.Batch, out []bool) {
	size := b.WindowSize()
	for i := range out {
		out[i] = f.fires(b.TargetDaysBefore(i), size)
	}
}

// fires applies the rate model to the visible prefix of the target's
// history for a window of the given size.
func (f Forecast) fires(days []timeline.Day, size int) bool {
	if len(days) < 2 {
		return false
	}
	// Exponentially-smoothed mean gap, most recent gap weighted highest.
	smoothed := float64(days[1] - days[0])
	for i := 2; i < len(days); i++ {
		gap := float64(days[i] - days[i-1])
		smoothed = f.Alpha*gap + (1-f.Alpha)*smoothed
	}
	if smoothed <= 0 {
		return false
	}
	lambda := 1 / smoothed
	p := 1 - math.Exp(-lambda*float64(size))
	return p > f.Threshold
}
