package ensemble

import (
	"testing"
	"testing/quick"

	"github.com/wikistale/wikistale/internal/predict"
)

func constant(name string, v bool) predict.Predictor {
	return predict.Func{PredictorName: name, Fn: func(predict.Batch, int) bool { return v }}
}

// verdict asks p a one-window question its members answer without
// consulting the batch.
func verdict(p predict.Predictor) bool {
	out := []bool{false}
	p.PredictWindows(predict.Batch{}, out)
	return out[0]
}

func TestTruthTables(t *testing.T) {
	cases := []struct {
		a, b    bool
		and, or bool
	}{
		{false, false, false, false},
		{false, true, false, true},
		{true, false, false, true},
		{true, true, true, true},
	}
	for _, c := range cases {
		members := []predict.Predictor{constant("a", c.a), constant("b", c.b)}
		if got := verdict(And{Members: members}); got != c.and {
			t.Errorf("AND(%v,%v) = %v", c.a, c.b, got)
		}
		if got := verdict(Or{Members: members}); got != c.or {
			t.Errorf("OR(%v,%v) = %v", c.a, c.b, got)
		}
	}
}

// TestAlgebra: AND implies each member implies OR, for arbitrary member
// outcome vectors.
func TestAlgebra(t *testing.T) {
	f := func(outcomes []bool) bool {
		if len(outcomes) == 0 {
			return true
		}
		members := make([]predict.Predictor, len(outcomes))
		for i, v := range outcomes {
			members[i] = constant("m", v)
		}
		and := verdict(And{Members: members})
		or := verdict(Or{Members: members})
		for _, v := range outcomes {
			if and && !v {
				return false // AND ⊆ member
			}
			if v && !or {
				return false // member ⊆ OR
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyEnsembles(t *testing.T) {
	if verdict(And{}) {
		t.Fatal("empty AND predicted")
	}
	if verdict(Or{}) {
		t.Fatal("empty OR predicted")
	}
}

func TestNames(t *testing.T) {
	a := And{Members: []predict.Predictor{constant("x", true), constant("y", true)}}
	if a.Name() != "AND(x, y)" {
		t.Fatalf("And name = %q", a.Name())
	}
	o := Or{Members: a.Members, Label: "custom"}
	if o.Name() != "custom" {
		t.Fatalf("label override = %q", o.Name())
	}
}

func TestPaperEnsembles(t *testing.T) {
	fc := constant("field correlations", true)
	ar := constant("association rules", false)
	and, or := Paper(fc, ar)
	if and.Name() != "AND-ensemble" || or.Name() != "OR-ensemble" {
		t.Fatalf("labels: %q %q", and.Name(), or.Name())
	}
	if verdict(and) || !verdict(or) {
		t.Fatal("paper ensembles miswired")
	}
}

// TestShortCircuit: on a one-window question OR stops at the first true,
// AND at the first false.
func TestShortCircuit(t *testing.T) {
	calls := 0
	counting := predict.Func{PredictorName: "count", Fn: func(predict.Batch, int) bool {
		calls++
		return true
	}}
	verdict(Or{Members: []predict.Predictor{constant("t", true), counting}})
	if calls != 0 {
		t.Fatal("OR did not short-circuit")
	}
	verdict(And{Members: []predict.Predictor{constant("f", false), counting}})
	if calls != 0 {
		t.Fatal("AND did not short-circuit")
	}
}
