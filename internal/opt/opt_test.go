package opt

import (
	"math/rand"
	"slices"
	"testing"

	"aggregathor/internal/tensor"
)

// quadratic is the test objective f(x) = ||x - target||²/2, gradient
// x - target: every optimizer must drive x to target.
func quadratic(target tensor.Vector) func(x tensor.Vector) tensor.Vector {
	return func(x tensor.Vector) tensor.Vector {
		g := x.Clone()
		g.Axpy(-1, target)
		return g
	}
}

func runOptimizer(o Optimizer, steps int) float64 {
	target := tensor.Vector{3, -2, 0.5}
	grad := quadratic(target)
	x := tensor.Vector{0, 0, 0}
	for s := 0; s < steps; s++ {
		o.Step(s, x, grad(x))
	}
	return tensor.Distance(x, target)
}

func TestAllOptimizersConvergeOnQuadratic(t *testing.T) {
	cases := []struct {
		name  string
		build func() Optimizer
		steps int
		tol   float64
	}{
		{"sgd", func() Optimizer { return &SGD{Schedule: Fixed{0.1}} }, 200, 1e-6},
		{"momentum", func() Optimizer { return &SGD{Schedule: Fixed{0.05}, Momentum: 0.9} }, 300, 1e-6},
		{"rmsprop", func() Optimizer { return &RMSProp{Schedule: Fixed{0.05}} }, 1500, 1e-2},
		{"adam", func() Optimizer { return &Adam{Schedule: Fixed{0.1}} }, 1500, 1e-2},
		{"adagrad", func() Optimizer { return &Adagrad{Schedule: Fixed{0.5}} }, 2000, 1e-2},
		{"adadelta", func() Optimizer { return &Adadelta{Schedule: Fixed{1.0}, Rho: 0.9} }, 4000, 0.2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if dist := runOptimizer(tc.build(), tc.steps); dist > tc.tol {
				t.Fatalf("%s ended %v from optimum (tol %v)", tc.name, dist, tc.tol)
			}
		})
	}
}

func TestSGDStepIsExact(t *testing.T) {
	o := &SGD{Schedule: Fixed{0.5}}
	x := tensor.Vector{1, 2}
	o.Step(0, x, tensor.Vector{2, -4})
	if x[0] != 0 || x[1] != 4 {
		t.Fatalf("got %v, want [0 4]", x)
	}
}

func TestMomentumAccumulates(t *testing.T) {
	o := &SGD{Schedule: Fixed{1}, Momentum: 0.5}
	x := tensor.Vector{0}
	o.Step(0, x, tensor.Vector{1}) // v=1, x=-1
	o.Step(1, x, tensor.Vector{1}) // v=1.5, x=-2.5
	if x[0] != -2.5 {
		t.Fatalf("got %v, want -2.5", x[0])
	}
}

func TestFixedSchedule(t *testing.T) {
	s := Fixed{0.01}
	if s.LR(0) != 0.01 || s.LR(1000) != 0.01 {
		t.Fatal("fixed schedule not fixed")
	}
}

func TestRegularizeL2(t *testing.T) {
	grad := tensor.Vector{0, 0}
	params := tensor.Vector{3, -2}
	Regularize(grad, params, 0, 0.5)
	if grad[0] != 3 || grad[1] != -2 {
		t.Fatalf("L2 grad %v, want [3 -2]", grad)
	}
}

func TestRegularizeL1(t *testing.T) {
	grad := tensor.Vector{0, 0, 0}
	params := tensor.Vector{3, -2, 0}
	Regularize(grad, params, 0.1, 0)
	if grad[0] != 0.1 || grad[1] != -0.1 || grad[2] != 0 {
		t.Fatalf("L1 grad %v", grad)
	}
}

func TestRegularizeNoopWhenZero(t *testing.T) {
	grad := tensor.Vector{1}
	Regularize(grad, tensor.Vector{5}, 0, 0)
	if grad[0] != 1 {
		t.Fatal("zero regularisation must not touch grad")
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"sgd", "momentum", "rmsprop", "adam", "adagrad", "adadelta"} {
		o, err := New(name, Fixed{0.1})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if o.Name() != name {
			t.Fatalf("Name() = %q, want %q", o.Name(), name)
		}
	}
	if _, err := New("lbfgs", Fixed{1}); err == nil {
		t.Fatal("want error for unknown optimizer")
	}
	if names := Names(); len(names) < 6 || !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(names) {
		t.Fatalf("Names() = %v, want at least 6, sorted and distinct", names)
	}
}

func TestOptimizersAreDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	grads := make([]tensor.Vector, 50)
	for i := range grads {
		grads[i] = tensor.Vector{rng.NormFloat64(), rng.NormFloat64()}
	}
	for _, name := range Names() {
		run := func() tensor.Vector {
			o, err := New(name, Fixed{0.01})
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.Vector{1, 1}
			for s, g := range grads {
				o.Step(s, x, g)
			}
			return x
		}
		a, b := run(), run()
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("%s is nondeterministic", name)
		}
	}
}
