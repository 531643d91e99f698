// Package nn is the from-scratch neural-network substrate standing in for
// TensorFlow: dense and convolutional layers with backpropagation, the
// paper's Table-1 CNN (≈1.75M parameters), softmax cross-entropy, and flat
// parameter/gradient views the parameter server and the GARs operate on.
//
// Data layout: activations travel as tensor.Matrix values with one row per
// sample; image rows are flattened height×width×channels (channel-last, the
// TensorFlow convention).
package nn

import "fmt"

// Shape describes an activation tensor for one sample. Dense layers use
// {1, 1, C} with C the feature width.
type Shape struct {
	H, W, C int
}

// Flat returns the flattened per-sample dimension H*W*C.
func (s Shape) Flat() int { return s.H * s.W * s.C }

// String implements fmt.Stringer.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.H, s.W, s.C) }

// FlatShape returns the dense shape {1,1,n}.
func FlatShape(n int) Shape { return Shape{H: 1, W: 1, C: n} }

// samePadding returns the output extent and the leading padding of one
// spatial axis given input extent in, kernel k and stride s (the TensorFlow
// SAME rule: out = ceil(in/s), total pad = max((out-1)*s + k - in, 0), the
// odd unit trailing).
func samePadding(in, k, s int) (out, padBegin int) {
	out = (in + s - 1) / s
	total := (out-1)*s + k - in
	if total < 0 {
		total = 0
	}
	return out, total / 2
}
