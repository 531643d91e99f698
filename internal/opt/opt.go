// Package opt implements the update rules exposed by the original runner's
// --optimizer flag (sgd, momentum via sgd, adadelta, adagrad, adam, rmsprop
// — the paper's default is RMSProp with lr 1e-3) over a fixed learning rate,
// plus L1/L2 regularisation.
//
// An Optimizer consumes the aggregated gradient chosen by the GAR and
// updates the flat parameter vector in place: Equation 2's descent step.
package opt

import (
	"fmt"
	"math"

	"aggregathor/internal/tensor"
)

// Schedule yields the learning rate for a given step.
type Schedule interface {
	// LR returns the learning rate at the given step (0-based).
	LR(step int) float64
}

// Fixed is a constant learning rate.
type Fixed struct{ Rate float64 }

// LR implements Schedule.
func (f Fixed) LR(int) float64 { return f.Rate }

// Optimizer applies aggregated gradients to the flat parameter vector.
// Implementations keep per-parameter state (moments) sized lazily on first
// Step.
type Optimizer interface {
	// Name returns the registry name.
	Name() string
	// Step updates params in place using grad at the given step index.
	Step(step int, params, grad tensor.Vector)
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	Schedule Schedule
	Momentum float64
	velocity tensor.Vector
}

// Name implements Optimizer.
func (s *SGD) Name() string {
	if s.Momentum != 0 {
		return "momentum"
	}
	return "sgd"
}

// Step implements Optimizer.
func (s *SGD) Step(step int, params, grad tensor.Vector) {
	lr := s.Schedule.LR(step)
	if s.Momentum == 0 {
		params.Axpy(-lr, grad)
		return
	}
	if s.velocity == nil {
		s.velocity = tensor.NewVector(params.Dim())
	}
	for i := range params {
		s.velocity[i] = s.Momentum*s.velocity[i] + grad[i]
		params[i] -= lr * s.velocity[i]
	}
}

// RMSProp divides the gradient by a running average of its recent magnitude
// (Tieleman & Hinton 2012) — the paper's evaluation default with lr 1e-3.
// Decay is 0.9 and epsilon 1e-10 (the TensorFlow defaults).
type RMSProp struct {
	Schedule Schedule
	ms       tensor.Vector
}

// Name implements Optimizer.
func (r *RMSProp) Name() string { return "rmsprop" }

// Step implements Optimizer.
func (r *RMSProp) Step(step int, params, grad tensor.Vector) {
	// Variables, not constants: 1-decay rounds at run time to
	// 0.09999999999999998, where a constant would fold to float64(0.1) and
	// move every trajectory. Adam's 1-β and Adadelta's 1-ρ are kept alike.
	decay, eps := 0.9, 1e-10
	if r.ms == nil {
		r.ms = tensor.NewVector(params.Dim())
	}
	lr := r.Schedule.LR(step)
	for i := range params {
		r.ms[i] = decay*r.ms[i] + (1-decay)*grad[i]*grad[i]
		params[i] -= lr * grad[i] / (math.Sqrt(r.ms[i]) + eps)
	}
}

// Adam is the Kingma & Ba adaptive-moment optimizer with β1 0.9, β2 0.999
// and epsilon 1e-8.
type Adam struct {
	Schedule Schedule
	m, v     tensor.Vector
	t        int
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// Step implements Optimizer.
func (a *Adam) Step(step int, params, grad tensor.Vector) {
	b1, b2, eps := 0.9, 0.999, 1e-8
	if a.m == nil {
		a.m = tensor.NewVector(params.Dim())
		a.v = tensor.NewVector(params.Dim())
	}
	a.t++
	lr := a.Schedule.LR(step)
	c1 := 1 - math.Pow(b1, float64(a.t))
	c2 := 1 - math.Pow(b2, float64(a.t))
	for i := range params {
		a.m[i] = b1*a.m[i] + (1-b1)*grad[i]
		a.v[i] = b2*a.v[i] + (1-b2)*grad[i]*grad[i]
		mh := a.m[i] / c1
		vh := a.v[i] / c2
		params[i] -= lr * mh / (math.Sqrt(vh) + eps)
	}
}

// Adagrad accumulates squared gradients for per-parameter rate adaptation;
// epsilon is 1e-10.
type Adagrad struct {
	Schedule Schedule
	accum    tensor.Vector
}

// Name implements Optimizer.
func (a *Adagrad) Name() string { return "adagrad" }

// Step implements Optimizer.
func (a *Adagrad) Step(step int, params, grad tensor.Vector) {
	eps := 1e-10
	if a.accum == nil {
		a.accum = tensor.NewVector(params.Dim())
	}
	lr := a.Schedule.LR(step)
	for i := range params {
		a.accum[i] += grad[i] * grad[i]
		params[i] -= lr * grad[i] / (math.Sqrt(a.accum[i]) + eps)
	}
}

// Adadelta is Zeiler's schedule-free variant with ρ 0.95 and epsilon 1e-6;
// Schedule scales the computed step (1.0 to match the original formulation).
type Adadelta struct {
	Schedule Schedule
	eg, ex   tensor.Vector
}

// Name implements Optimizer.
func (a *Adadelta) Name() string { return "adadelta" }

// Step implements Optimizer.
func (a *Adadelta) Step(step int, params, grad tensor.Vector) {
	rho, eps := 0.95, 1e-6
	if a.eg == nil {
		a.eg = tensor.NewVector(params.Dim())
		a.ex = tensor.NewVector(params.Dim())
	}
	lr := a.Schedule.LR(step)
	for i := range params {
		a.eg[i] = rho*a.eg[i] + (1-rho)*grad[i]*grad[i]
		dx := -math.Sqrt(a.ex[i]+eps) / math.Sqrt(a.eg[i]+eps) * grad[i]
		a.ex[i] = rho*a.ex[i] + (1-rho)*dx*dx
		params[i] += lr * dx
	}
}

// Regularize adds the L1/L2 penalty gradients to grad in place, mirroring
// the runner's --l1-regularize / --l2-regularize flags.
func Regularize(grad, params tensor.Vector, l1, l2 float64) {
	if l1 == 0 && l2 == 0 {
		return
	}
	for i := range grad {
		if l2 != 0 {
			grad[i] += 2 * l2 * params[i]
		}
		if l1 != 0 {
			switch {
			case params[i] > 0:
				grad[i] += l1
			case params[i] < 0:
				grad[i] -= l1
			}
		}
	}
}

// registry is every optimizer, one row each, sorted by name.
var registry = []struct {
	name string
	new  func(s Schedule) Optimizer
}{
	{"adadelta", func(s Schedule) Optimizer { return &Adadelta{Schedule: s} }},
	{"adagrad", func(s Schedule) Optimizer { return &Adagrad{Schedule: s} }},
	{"adam", func(s Schedule) Optimizer { return &Adam{Schedule: s} }},
	{"momentum", func(s Schedule) Optimizer { return &SGD{Schedule: s, Momentum: 0.9} }},
	{"rmsprop", func(s Schedule) Optimizer { return &RMSProp{Schedule: s} }},
	{"sgd", func(s Schedule) Optimizer { return &SGD{Schedule: s} }},
}

// New builds the named optimizer over the given schedule.
func New(name string, s Schedule) (Optimizer, error) {
	for _, row := range registry {
		if row.name == name {
			return row.new(s), nil
		}
	}
	return nil, fmt.Errorf("opt: unknown optimizer %q (available: %v)", name, Names())
}

// Names returns the optimizer names, sorted.
func Names() []string {
	names := make([]string, len(registry))
	for i, row := range registry {
		names[i] = row.name
	}
	return names
}
