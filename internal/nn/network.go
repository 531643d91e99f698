package nn

import (
	"fmt"
	"math"
	"strings"

	"aggregathor/internal/tensor"
)

// Network is a feed-forward stack of layers over two flat stores, the unit of
// state the parameter server replicates to workers. params holds every
// parameter and grads every parameter gradient, in layer order, weights
// before biases; the layers' own blocks are views into them. So the model is
// a vector and a vector is the model: loading, reading out, sending and
// receiving are at most one copy of d floats, and none for a caller that
// borrows the store itself (Params, GradientView). The parameter store need
// not be the network's own: TrainOn makes a caller's vector the store, so a
// replica can train on the model it was handed without copying it.
//
// A network never writes its parameter store: forward and backward passes
// read it and write only the gradient store and layer scratch. Whoever hands
// a network a vector through TrainOn must not write that vector while the
// network computes on it.
type Network struct {
	inShape Shape
	layers  []Layer
	dim     int
	// trainFrom is the index of the first layer with parameters: Backward
	// stops there, since an input gradient below it feeds no parameter.
	trainFrom int
	params    tensor.Vector
	// grads is made by the first Backward: a replica that only evaluates
	// never pays for it.
	grads   tensor.Vector
	dLogits *tensor.Matrix // the loss gradient, reused like a layer's scratch
}

// NewNetwork assembles a network over the given input shape, moving the
// layers' parameters into its flat store. The caller is responsible for layer
// shape compatibility (checked at first Forward).
func NewNetwork(in Shape, layers ...Layer) *Network {
	n := &Network{inShape: in, layers: layers, trainFrom: len(layers)}
	for i, l := range layers {
		if n.dim == 0 && l.NumParams() > 0 {
			n.trainFrom = i
		}
		n.dim += l.NumParams()
	}
	n.params = tensor.NewVector(n.dim)
	n.bind(n.params, (*block).bindParams)
	return n
}

// bind hands every layer with parameters its share of store, in layer order.
func (n *Network) bind(store tensor.Vector, bind func(*block, tensor.Vector)) {
	off := 0
	for _, l := range n.layers {
		if np := l.NumParams(); np > 0 {
			bind(l.(interface{ blk() *block }).blk(), store[off:off+np])
			off += np
		}
	}
}

// NumParams returns the total trainable parameter count d.
func (n *Network) NumParams() int { return n.dim }

// Forward runs a batch through the network and returns the logits, which
// may be a layer's reused output: valid until the next Forward.
func (n *Network) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := x
	for _, l := range n.layers {
		out = l.Forward(out)
	}
	return out
}

// Backward propagates the loss gradient through the stack, overwriting the
// gradient store. Nobody reads the gradient with respect to the network's
// input, so the walk ends at the first trainable layer, which is told not to
// compute its input gradient (for a Dense layer a matmul as large as its
// forward pass).
func (n *Network) Backward(gradOut *tensor.Matrix) {
	if n.grads == nil {
		n.grads = tensor.NewVector(n.dim)
		n.bind(n.grads, (*block).bindGrads)
	}
	g := gradOut
	for i := len(n.layers) - 1; i >= n.trainFrom; i-- {
		g = n.layers[i].Backward(g, i > n.trainFrom)
	}
}

// Params returns the live parameter store, length NumParams, in layer order —
// the network's own, or the vector TrainOn bound: writing it is writing the
// model. It is what a socket replica receives a broadcast into.
func (n *Network) Params() tensor.Vector { return n.params }

// ParamsVector returns a copy of all parameters.
func (n *Network) ParamsVector() tensor.Vector { return n.params.Clone() }

// TrainOn makes v the parameter store: every layer's weights and biases
// become views of v, nothing is copied or allocated, and Params returns v
// from then on. Binding the vector already bound does nothing. The network
// only reads v (see Network); writing v between passes is writing the model.
// It panics on dimension mismatch.
func (n *Network) TrainOn(v tensor.Vector) {
	if v.Dim() != n.dim {
		panic(fmt.Sprintf("nn: TrainOn dimension %d, want %d", v.Dim(), n.dim))
	}
	if n.dim > 0 && &v[0] != &n.params[0] {
		n.params = v
		n.bind(v, (*block).viewParams)
	}
}

// SetParamsVector copies a flat parameter vector into the store — a no-op for
// the store itself. It panics on dimension mismatch.
func (n *Network) SetParamsVector(v tensor.Vector) {
	if v.Dim() != n.dim {
		panic(fmt.Sprintf("nn: SetParamsVector dimension %d, want %d", v.Dim(), n.dim))
	}
	if n.dim > 0 && &v[0] != &n.params[0] {
		copy(n.params, v)
	}
}

// GradientView computes the mini-batch loss and the flat gradient: one worker
// step (forward, softmax cross-entropy, backward), allocation-free once the
// batch shape has been seen. The returned vector is the live gradient store,
// borrowed: valid until this network's next backward pass, which overwrites
// it. A worker submitting its own gradient borrows; anything that holds two
// gradients of one network, or one across a round, takes Gradient's copy.
func (n *Network) GradientView(x *tensor.Matrix, labels []int) (loss float64, grad tensor.Vector) {
	loss = n.lossGradient(n.Forward(x), labels)
	n.Backward(n.dLogits)
	return loss, n.grads
}

// Gradient is GradientView with a caller-owned result: a fresh copy, never
// aliased by the network or overwritten by a later call.
func (n *Network) Gradient(x *tensor.Matrix, labels []int) (loss float64, grad tensor.Vector) {
	loss, grad = n.GradientView(x, labels)
	return loss, grad.Clone()
}

// lossGradient returns the mean loss of the logits and leaves its gradient
// in n.dLogits.
func (n *Network) lossGradient(logits *tensor.Matrix, labels []int) float64 {
	n.dLogits = sized(n.dLogits, logits.Rows, logits.Cols)
	return softmaxCrossEntropy(n.dLogits, logits, labels)
}

// Predict returns the argmax class for each row of x.
func (n *Network) Predict(x *tensor.Matrix) []int {
	logits := n.Forward(x)
	out := make([]int, logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		best := 0
		for j := 1; j < len(row); j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// Accuracy returns the top-1 accuracy of the network on (x, labels) — the
// paper's "top-1 cross-accuracy" metric.
func (n *Network) Accuracy(x *tensor.Matrix, labels []int) float64 {
	if x.Rows == 0 {
		return 0
	}
	pred := n.Predict(x)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// Summary renders a Table-1-style parameter table of the network.
func (n *Network) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-12s %12s\n", "layer", "output", "params")
	fmt.Fprintf(&b, "%-22s %-12s %12s\n", "input", n.inShape.String(), "0")
	for _, l := range n.layers {
		fmt.Fprintf(&b, "%-22s %-12s %12d\n", l.Name(), l.OutShape().String(), l.NumParams())
	}
	fmt.Fprintf(&b, "%-22s %-12s %12d\n", "total", "", n.NumParams())
	return b.String()
}

// softmaxCrossEntropy computes the mean cross-entropy loss of logits against
// integer labels and writes the gradient with respect to the logits
// ((softmax−onehot)/batch) into grad, a matrix of the logits' shape, using
// the max-shift for numerical stability.
func softmaxCrossEntropy(grad, logits *tensor.Matrix, labels []int) float64 {
	if logits.Rows != len(labels) {
		panic(fmt.Sprintf("nn: %d logit rows vs %d labels", logits.Rows, len(labels)))
	}
	var total float64
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		grow := grad.Row(i)
		maxv := row.Max()
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxv)
			grow[j] = e
			sum += e
		}
		label := labels[i]
		if label < 0 || label >= logits.Cols {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, logits.Cols))
		}
		p := grow[label] / sum
		total += -math.Log(math.Max(p, 1e-300))
		inv := 1 / (sum * float64(logits.Rows))
		for j := range grow {
			grow[j] *= inv
		}
		grow[label] -= 1 / float64(logits.Rows)
	}
	return total / float64(logits.Rows)
}
