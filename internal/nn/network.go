package nn

import (
	"fmt"
	"math"
	"strings"

	"aggregathor/internal/tensor"
)

// Network is a feed-forward stack of layers with flat parameter/gradient
// views, the unit of state the parameter server replicates to workers.
type Network struct {
	inShape Shape
	layers  []Layer
	dim     int
	// trainFrom is the index of the first layer with parameters: Backward
	// stops there, since an input gradient below it feeds no parameter.
	trainFrom int
}

// NewNetwork assembles a network over the given input shape. The caller is
// responsible for layer shape compatibility (checked at first Forward).
func NewNetwork(in Shape, layers ...Layer) *Network {
	n := &Network{inShape: in, layers: layers, trainFrom: len(layers)}
	for i, l := range layers {
		if n.dim == 0 && l.NumParams() > 0 {
			n.trainFrom = i
		}
		n.dim += l.NumParams()
	}
	return n
}

// InShape returns the per-sample input shape.
func (n *Network) InShape() Shape { return n.inShape }

// Layers returns the layer stack (read-only by convention).
func (n *Network) Layers() []Layer { return n.layers }

// NumParams returns the total trainable parameter count d.
func (n *Network) NumParams() int { return n.dim }

// Forward runs a batch through the network and returns the logits.
func (n *Network) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := x
	for _, l := range n.layers {
		out = l.Forward(out, train)
	}
	return out
}

// Backward propagates the loss gradient through the stack, filling each
// layer's parameter gradients. Nobody reads the gradient with respect to the
// network's input, so the walk ends at the first trainable layer, which is
// told not to compute its input gradient (for a Dense layer a matmul as
// large as its forward pass).
func (n *Network) Backward(gradOut *tensor.Matrix) {
	g := gradOut
	for i := len(n.layers) - 1; i >= n.trainFrom; i-- {
		g = n.layers[i].Backward(g, i > n.trainFrom)
	}
}

// ParamsVector copies all parameters into one flat vector of length
// NumParams, in layer order.
func (n *Network) ParamsVector() tensor.Vector {
	out := tensor.NewVector(n.dim)
	off := 0
	for _, l := range n.layers {
		for _, p := range l.Params() {
			copy(out[off:off+len(p)], p)
			off += len(p)
		}
	}
	return out
}

// SetParamsVector loads a flat parameter vector into the layers. It panics
// on dimension mismatch.
func (n *Network) SetParamsVector(v tensor.Vector) {
	if v.Dim() != n.dim {
		panic(fmt.Sprintf("nn: SetParamsVector dimension %d, want %d", v.Dim(), n.dim))
	}
	off := 0
	for _, l := range n.layers {
		for _, p := range l.Params() {
			copy(p, v[off:off+len(p)])
			off += len(p)
		}
	}
}

// GradsVector copies all parameter gradients into one flat vector aligned
// with ParamsVector.
func (n *Network) GradsVector() tensor.Vector {
	out := tensor.NewVector(n.dim)
	off := 0
	for _, l := range n.layers {
		for _, g := range l.Grads() {
			copy(out[off:off+len(g)], g)
			off += len(g)
		}
	}
	return out
}

// Gradient computes the mini-batch loss and the flat gradient: one worker
// step (forward, softmax cross-entropy, backward). The returned vector is
// caller-owned: freshly allocated by GradsVector, never aliased by the
// network or overwritten by a later call.
func (n *Network) Gradient(x *tensor.Matrix, labels []int) (loss float64, grad tensor.Vector) {
	logits := n.Forward(x, true)
	loss, dLogits := SoftmaxCrossEntropy(logits, labels)
	n.Backward(dLogits)
	return loss, n.GradsVector()
}

// Loss computes the mean loss of a batch without touching gradients.
func (n *Network) Loss(x *tensor.Matrix, labels []int) float64 {
	logits := n.Forward(x, false)
	loss, _ := SoftmaxCrossEntropy(logits, labels)
	return loss
}

// Predict returns the argmax class for each row of x.
func (n *Network) Predict(x *tensor.Matrix) []int {
	logits := n.Forward(x, false)
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

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits against
// integer labels and the gradient with respect to the logits
// ((softmax−onehot)/batch), using the max-shift for numerical stability.
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	if logits.Rows != len(labels) {
		panic(fmt.Sprintf("nn: %d logit rows vs %d labels", logits.Rows, len(labels)))
	}
	grad := tensor.NewMatrix(logits.Rows, logits.Cols)
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
	return total / float64(logits.Rows), grad
}
