package nn

import (
	"math"

	"aggregathor/internal/tensor"
)

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	shape Shape
	out   []float64 // cached activations for the backward pass
}

// NewTanh builds a Tanh over the given sample shape.
func NewTanh(shape Shape) *Tanh { return &Tanh{shape: shape} }

// Name implements Layer.
func (t *Tanh) Name() string { return "tanh" }

// OutShape implements Layer.
func (t *Tanh) OutShape() Shape { return t.shape }

// NumParams implements Layer.
func (t *Tanh) NumParams() int { return 0 }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := x.Clone()
	for i, v := range out.Data {
		out.Data[i] = math.Tanh(v)
	}
	if cap(t.out) < len(out.Data) {
		t.out = make([]float64, len(out.Data))
	}
	t.out = t.out[:len(out.Data)]
	copy(t.out, out.Data)
	return out
}

// Backward implements Layer: d tanh(x)/dx = 1 − tanh²(x).
func (t *Tanh) Backward(gradOut *tensor.Matrix, _ bool) *tensor.Matrix {
	gradIn := gradOut.Clone()
	for i := range gradIn.Data {
		y := t.out[i]
		gradIn.Data[i] *= 1 - y*y
	}
	return gradIn
}

// Params implements Layer.
func (t *Tanh) Params() []tensor.Vector { return nil }

// Grads implements Layer.
func (t *Tanh) Grads() []tensor.Vector { return nil }

// Sigmoid is the logistic activation.
type Sigmoid struct {
	shape Shape
	out   []float64
}

// NewSigmoid builds a Sigmoid over the given sample shape.
func NewSigmoid(shape Shape) *Sigmoid { return &Sigmoid{shape: shape} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return "sigmoid" }

// OutShape implements Layer.
func (s *Sigmoid) OutShape() Shape { return s.shape }

// NumParams implements Layer.
func (s *Sigmoid) NumParams() int { return 0 }

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := x.Clone()
	for i, v := range out.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	if cap(s.out) < len(out.Data) {
		s.out = make([]float64, len(out.Data))
	}
	s.out = s.out[:len(out.Data)]
	copy(s.out, out.Data)
	return out
}

// Backward implements Layer: dσ/dx = σ(1−σ).
func (s *Sigmoid) Backward(gradOut *tensor.Matrix, _ bool) *tensor.Matrix {
	gradIn := gradOut.Clone()
	for i := range gradIn.Data {
		y := s.out[i]
		gradIn.Data[i] *= y * (1 - y)
	}
	return gradIn
}

// Params implements Layer.
func (s *Sigmoid) Params() []tensor.Vector { return nil }

// Grads implements Layer.
func (s *Sigmoid) Grads() []tensor.Vector { return nil }
