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

// block is what a layer with parameters embeds: a weight matrix and a bias
// vector, and their gradients. A layer builds its block with storage of its
// own; the network it joins binds the block into its flat stores, after which
// all four are views (README.md, "Flat stores and views").
type block struct {
	w  *tensor.Matrix
	b  tensor.Vector
	gw *tensor.Matrix // nil until bound to a gradient store
	gb tensor.Vector
}

func newBlock(rows, cols int) block {
	return block{w: tensor.NewMatrix(rows, cols), b: tensor.NewVector(cols)}
}

// views splits a store NumParams long into the block's two shapes, weights
// first.
func (p *block) views(store tensor.Vector) (*tensor.Matrix, tensor.Vector) {
	n := len(p.w.Data)
	return &tensor.Matrix{Rows: p.w.Rows, Cols: p.w.Cols, Data: store[:n:n]}, store[n : n+len(p.b)]
}

// blk is how a Network finds the block of a layer that embeds one.
func (p *block) blk() *block { return p }

// bindParams moves the parameters into store, values carried over.
func (p *block) bindParams(store tensor.Vector) {
	w, b := p.views(store)
	copy(w.Data, p.w.Data)
	copy(b, p.b)
	p.w, p.b = w, b
}

// bindGrads makes store the gradients.
func (p *block) bindGrads(store tensor.Vector) { p.gw, p.gb = p.views(store) }

// ownGrads gives a layer used outside any Network a gradient store of its own.
func (p *block) ownGrads() {
	if p.gw == nil {
		p.bindGrads(tensor.NewVector(p.NumParams()))
	}
}

// NumParams implements Layer.
func (p *block) NumParams() int { return len(p.w.Data) + len(p.b) }

// Params implements Layer.
func (p *block) Params() []tensor.Vector { return []tensor.Vector{tensor.Vector(p.w.Data), p.b} }

// Grads implements Layer. Until its network's first backward pass the layer
// has no share of a gradient store, and the views are of a zero block of its
// own that the network's then replaces.
func (p *block) Grads() []tensor.Vector {
	p.ownGrads()
	return []tensor.Vector{tensor.Vector(p.gw.Data), p.gb}
}

// sized returns m when it is rows×cols and a new matrix otherwise: a layer's
// scratch is made on first use and again only when the batch shape changes.
// The contents are whatever the last call left.
func sized(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m == nil || m.Rows != rows || m.Cols != cols {
		return tensor.NewMatrix(rows, cols)
	}
	return m
}

// Dense is a fully connected layer: y = x·W + b, W in×out.
type Dense struct {
	block
	in, out int
	lastX   *tensor.Matrix
	// y and gradIn are the layer's output and input gradient, reused from
	// call to call: each is valid until the next Forward (Backward).
	y, gradIn *tensor.Matrix
}

// NewDense builds a Dense layer with He-normal initialisation from rng.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{block: newBlock(in, out), in: in, out: out}
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

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != d.in {
		panic(fmt.Sprintf("nn: dense expects %d inputs, got %d", d.in, x.Cols))
	}
	d.lastX = x
	d.y = sized(d.y, x.Rows, d.out)
	tensor.MatMul(d.y, x, d.w)
	d.y.AddRowVector(d.b)
	return d.y
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Matrix, needInput bool) *tensor.Matrix {
	d.ownGrads()
	tensor.MatMulTransA(d.gw, d.lastX, gradOut)
	gradOut.ColumnSumsInto(d.gb)
	if !needInput {
		return nil
	}
	d.gradIn = sized(d.gradIn, gradOut.Rows, d.in)
	tensor.MatMulTransB(d.gradIn, gradOut, d.w)
	return d.gradIn
}

// ReLU is the rectified linear activation.
type ReLU struct {
	shape Shape
	mask  []bool
	// y and gradIn are reused from call to call, like Dense's.
	y, gradIn *tensor.Matrix
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
	r.y = sized(r.y, x.Rows, x.Cols)
	if len(r.mask) != len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	for i, v := range x.Data {
		if v <= 0 {
			r.y.Data[i], r.mask[i] = 0, false
		} else {
			r.y.Data[i], r.mask[i] = v, true
		}
	}
	return r.y
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Matrix, _ bool) *tensor.Matrix {
	r.gradIn = sized(r.gradIn, gradOut.Rows, gradOut.Cols)
	for i, g := range gradOut.Data {
		if !r.mask[i] {
			g = 0
		}
		r.gradIn.Data[i] = g
	}
	return r.gradIn
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
