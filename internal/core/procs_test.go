package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/eval"
	"github.com/wikistale/wikistale/internal/timeline"
)

// procsOutputs is everything the parallel training and evaluation loops
// produce on the small corpus.
type procsOutputs struct {
	model   []byte
	report  *eval.Report
	theta   []ThetaResult
	apriori []AprioriResult
}

func trainAtProcs(t *testing.T, procs int) procsOutputs {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	det, err := Train(cube, DefaultConfig())
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: train: %v", procs, err)
	}
	var out procsOutputs
	if out.model, err = det.MarshalModel(); err != nil {
		t.Fatalf("GOMAXPROCS=%d: marshal: %v", procs, err)
	}
	out.report, err = det.EvaluateTest(eval.Options{
		Sizes:        timeline.StandardSizes,
		OverTimeSize: 7,
		OverlapPairs: [][2]int{{2, 3}},
	})
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: evaluate: %v", procs, err)
	}
	cfg := DefaultConfig()
	out.theta, err = GridSearchTheta(det.Histories(), det.Splits(),
		[]float64{0.01, 0.05, 0.1, 0.15}, cfg.Correlation, 1)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: theta grid: %v", procs, err)
	}
	out.apriori, err = GridSearchApriori(det.Histories(), det.Splits(),
		[]float64{0.0025, 0.01}, []float64{0.6, 0.75}, []float64{0.1}, cfg.AssocRules, 1)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: apriori grid: %v", procs, err)
	}
	return out
}

// TestOutputsIndependentOfProcs is the reference for every parallel loop
// in training and evaluation: the model bytes, the Table-1 report (all
// four sizes, the over-time series and the overlap) and both grid searches
// must not depend on how many processors ran them.
func TestOutputsIndependentOfProcs(t *testing.T) {
	want := trainAtProcs(t, 1)
	for _, procs := range []int{2, 8} {
		got := trainAtProcs(t, procs)
		if !bytes.Equal(got.model, want.model) {
			t.Errorf("GOMAXPROCS=%d: model bytes differ from GOMAXPROCS=1", procs)
		}
		if !reflect.DeepEqual(got.report, want.report) {
			t.Errorf("GOMAXPROCS=%d: test-year report differs from GOMAXPROCS=1", procs)
		}
		if !reflect.DeepEqual(got.theta, want.theta) {
			t.Errorf("GOMAXPROCS=%d: theta grid %+v, want %+v", procs, got.theta, want.theta)
		}
		if !reflect.DeepEqual(got.apriori, want.apriori) {
			t.Errorf("GOMAXPROCS=%d: apriori grid %+v, want %+v", procs, got.apriori, want.apriori)
		}
	}
}
