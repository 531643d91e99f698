package opt

import (
	"math"
	"math/rand"
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

func TestOptimizerReset(t *testing.T) {
	o := &Adam{Schedule: Fixed{0.1}}
	x := tensor.Vector{1}
	o.Step(0, x, tensor.Vector{1})
	o.Reset()
	if o.m != nil || o.v != nil || o.t != 0 {
		t.Fatal("Reset did not clear Adam state")
	}
	s := &SGD{Schedule: Fixed{0.1}, Momentum: 0.9}
	s.Step(0, x, tensor.Vector{1})
	s.Reset()
	if s.velocity != nil {
		t.Fatal("Reset did not clear SGD velocity")
	}
}

func TestFixedSchedule(t *testing.T) {
	s := Fixed{0.01}
	if s.LR(0) != 0.01 || s.LR(1000) != 0.01 {
		t.Fatal("fixed schedule not fixed")
	}
}

func TestPolynomialSchedule(t *testing.T) {
	s := Polynomial{Initial: 1, Final: 0.1, Steps: 100, Power: 1}
	if s.LR(0) != 1 {
		t.Fatalf("LR(0) = %v", s.LR(0))
	}
	if got := s.LR(50); math.Abs(got-0.55) > 1e-12 {
		t.Fatalf("LR(50) = %v, want 0.55", got)
	}
	if s.LR(100) != 0.1 {
		t.Fatalf("LR(100) = %v", s.LR(100))
	}
	if s.LR(500) != 0.1 {
		t.Fatalf("LR past end = %v, want clamp at final", s.LR(500))
	}
}

func TestExponentialSchedule(t *testing.T) {
	s := Exponential{Initial: 1, Rate: 0.5, DecaySteps: 10}
	if s.LR(0) != 1 {
		t.Fatalf("LR(0) = %v", s.LR(0))
	}
	if got := s.LR(10); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("LR(10) = %v, want 0.5", got)
	}
	if got := s.LR(20); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("LR(20) = %v, want 0.25", got)
	}
}

func TestScheduleDegenerateSteps(t *testing.T) {
	if (Polynomial{Initial: 2}).LR(5) != 2 {
		t.Fatal("polynomial with Steps=0 should hold initial")
	}
	if (Exponential{Initial: 2}).LR(5) != 2 {
		t.Fatal("exponential with DecaySteps=0 should hold initial")
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
	if len(Names()) < 6 {
		t.Fatalf("Names() = %v", Names())
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Register("sgd", func(s Schedule) Optimizer { return &SGD{Schedule: s} })
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

func TestClipNorm(t *testing.T) {
	g := tensor.Vector{3, 4} // norm 5
	ClipNorm(g, 2.5)
	if math.Abs(g.Norm()-2.5) > 1e-12 {
		t.Fatalf("clipped norm %v, want 2.5", g.Norm())
	}
	if math.Abs(g[0]/g[1]-0.75) > 1e-12 {
		t.Fatal("clipping must preserve direction")
	}
	h := tensor.Vector{1, 0}
	ClipNorm(h, 5)
	if h[0] != 1 {
		t.Fatal("small gradients must pass unchanged")
	}
	ClipNorm(h, 0) // no-op
	if h[0] != 1 {
		t.Fatal("maxNorm 0 must be a no-op")
	}
}
