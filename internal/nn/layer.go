package nn

import (
	"fmt"
	"math"
	"math/rand"

	"aggregathor/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward runs the batch
// through the layer; Backward consumes the loss gradient with respect to the
// layer output and returns the gradient with respect to the layer input,
// writing parameter gradients as a side effect (overwriting, not
// accumulating, per call).
type Layer interface {
	// Name identifies the layer for diagnostics and Table-1 printing.
	Name() string
	// OutShape returns the output sample shape.
	OutShape() Shape
	// NumParams returns the number of trainable scalars.
	NumParams() int
	// Forward computes the layer output for a batch (rows = samples).
	// train toggles training-only behaviour (dropout).
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	// Backward computes the input gradient from the output gradient.
	// It must be called after Forward on the same batch. needInput is false
	// when nothing reads the input gradient (no trainable layer lies below):
	// a layer whose input gradient costs a pass of its own then skips it and
	// returns nil. The parameter gradients are the same either way.
	Backward(gradOut *tensor.Matrix, needInput bool) *tensor.Matrix
	// Params returns views (not copies) of the trainable parameter
	// blocks; writing through them updates the layer.
	Params() []tensor.Vector
	// Grads returns views of the parameter gradient blocks, aligned with
	// Params.
	Grads() []tensor.Vector
}

// Dense is a fully connected layer: y = x·W + b.
type Dense struct {
	in, out int
	w       *tensor.Matrix // in x out
	b       tensor.Vector  // out
	gw      *tensor.Matrix
	gb      tensor.Vector
	lastX   *tensor.Matrix
}

// NewDense builds a Dense layer with He-normal initialisation from rng.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		in: in, out: out,
		w:  tensor.NewMatrix(in, out),
		b:  tensor.NewVector(out),
		gw: tensor.NewMatrix(in, out),
		gb: tensor.NewVector(out),
	}
	std := math.Sqrt(2 / float64(in))
	for i := range d.w.Data {
		d.w.Data[i] = rng.NormFloat64() * std
	}
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.in, d.out) }

// OutShape implements Layer.
func (d *Dense) OutShape() Shape { return FlatShape(d.out) }

// NumParams implements Layer.
func (d *Dense) NumParams() int { return d.in*d.out + d.out }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != d.in {
		panic(fmt.Sprintf("nn: dense expects %d inputs, got %d", d.in, x.Cols))
	}
	d.lastX = x
	out := tensor.NewMatrix(x.Rows, d.out)
	tensor.MatMul(out, x, d.w)
	out.AddRowVector(d.b)
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Matrix, needInput bool) *tensor.Matrix {
	tensor.MatMulTransA(d.gw, d.lastX, gradOut)
	copy(d.gb, gradOut.ColumnSums())
	if !needInput {
		return nil
	}
	gradIn := tensor.NewMatrix(gradOut.Rows, d.in)
	tensor.MatMulTransB(gradIn, gradOut, d.w)
	return gradIn
}

// Params implements Layer.
func (d *Dense) Params() []tensor.Vector {
	return []tensor.Vector{tensor.Vector(d.w.Data), d.b}
}

// Grads implements Layer.
func (d *Dense) Grads() []tensor.Vector {
	return []tensor.Vector{tensor.Vector(d.gw.Data), d.gb}
}

// ReLU is the rectified linear activation.
type ReLU struct {
	shape Shape
	mask  []bool
}

// NewReLU builds a ReLU over the given sample shape.
func NewReLU(shape Shape) *ReLU { return &ReLU{shape: shape} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// OutShape implements Layer.
func (r *ReLU) OutShape() Shape { return r.shape }

// NumParams implements Layer.
func (r *ReLU) NumParams() int { return 0 }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := x.Clone()
	if cap(r.mask) < len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	r.mask = r.mask[:len(out.Data)]
	for i, v := range out.Data {
		if v <= 0 {
			out.Data[i] = 0
			r.mask[i] = false
		} else {
			r.mask[i] = true
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Matrix, _ bool) *tensor.Matrix {
	gradIn := gradOut.Clone()
	for i := range gradIn.Data {
		if !r.mask[i] {
			gradIn.Data[i] = 0
		}
	}
	return gradIn
}

// Params implements Layer.
func (r *ReLU) Params() []tensor.Vector { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []tensor.Vector { return nil }

// Flatten reinterprets an image shape as a flat feature vector. With the
// row-major per-sample layout this is a no-op on data; only the declared
// shape changes.
type Flatten struct {
	in Shape
}

// NewFlatten builds a Flatten over the given input shape.
func NewFlatten(in Shape) *Flatten { return &Flatten{in: in} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// OutShape implements Layer.
func (f *Flatten) OutShape() Shape { return FlatShape(f.in.Flat()) }

// NumParams implements Layer.
func (f *Flatten) NumParams() int { return 0 }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Matrix, train bool) *tensor.Matrix { return x }

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Matrix, _ bool) *tensor.Matrix { return gradOut }

// Params implements Layer.
func (f *Flatten) Params() []tensor.Vector { return nil }

// Grads implements Layer.
func (f *Flatten) Grads() []tensor.Vector { return nil }

// Dropout zeroes activations with probability Rate at train time, scaling
// the survivors by 1/(1-Rate) (inverted dropout); it is the identity at
// evaluation time.
type Dropout struct {
	shape Shape
	rate  float64
	rng   *rand.Rand
	mask  []float64
}

// NewDropout builds a Dropout layer. rate must be in [0, 1).
func NewDropout(shape Shape, rate float64, rng *rand.Rand) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v out of [0,1)", rate))
	}
	return &Dropout{shape: shape, rate: rate, rng: rng}
}

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("dropout(%.2f)", d.rate) }

// OutShape implements Layer.
func (d *Dropout) OutShape() Shape { return d.shape }

// NumParams implements Layer.
func (d *Dropout) NumParams() int { return 0 }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train || d.rate == 0 {
		d.mask = nil
		return x
	}
	out := x.Clone()
	if cap(d.mask) < len(out.Data) {
		d.mask = make([]float64, len(out.Data))
	}
	d.mask = d.mask[:len(out.Data)]
	keep := 1 - d.rate
	for i := range out.Data {
		if d.rng.Float64() < d.rate {
			d.mask[i] = 0
			out.Data[i] = 0
		} else {
			d.mask[i] = 1 / keep
			out.Data[i] *= d.mask[i]
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(gradOut *tensor.Matrix, _ bool) *tensor.Matrix {
	if d.mask == nil {
		return gradOut
	}
	gradIn := gradOut.Clone()
	for i := range gradIn.Data {
		gradIn.Data[i] *= d.mask[i]
	}
	return gradIn
}

// Params implements Layer.
func (d *Dropout) Params() []tensor.Vector { return nil }

// Grads implements Layer.
func (d *Dropout) Grads() []tensor.Vector { return nil }
