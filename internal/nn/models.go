package nn

import (
	"math/rand"
)

// NewCIFARCNN builds the paper's Table-1 convolutional network for 32×32×3
// inputs:
//
//	Conv1 5×5×64 stride 1 (SAME) → ReLU → Pool1 3×3 stride 2 (SAME)
//	Conv2 5×5×64 stride 1 (SAME) → ReLU → Pool2 3×3 stride 2 (SAME)
//	FC 384 → ReLU → FC 192 → ReLU → FC 10
//
// Total ≈ 1.75M parameters (asserted by test against Table 1).
func NewCIFARCNN(rng *rand.Rand) *Network {
	in := Shape{H: 32, W: 32, C: 3}
	conv1 := NewConv2D(in, 5, 5, 64, 1, rng)
	pool1 := NewMaxPool2D(conv1.OutShape(), 3, 2)
	conv2 := NewConv2D(pool1.OutShape(), 5, 5, 64, 1, rng)
	pool2 := NewMaxPool2D(conv2.OutShape(), 3, 2)
	flat := NewFlatten(pool2.OutShape())
	fc1 := NewDense(flat.OutShape().Flat(), 384, rng)
	fc2 := NewDense(384, 192, rng)
	fc3 := NewDense(192, 10, rng)
	return NewNetwork(in,
		conv1, NewReLU(conv1.OutShape()), pool1,
		conv2, NewReLU(conv2.OutShape()), pool2,
		flat,
		fc1, NewReLU(FlatShape(384)),
		fc2, NewReLU(FlatShape(192)),
		fc3,
	)
}

// NewSmallCNN builds a scaled-down convolutional network for fast tests and
// experiments: inH×inW×inC input, one conv block, two dense layers.
func NewSmallCNN(in Shape, classes int, rng *rand.Rand) *Network {
	conv := NewConv2D(in, 3, 3, 8, 1, rng)
	pool := NewMaxPool2D(conv.OutShape(), 2, 2)
	flat := NewFlatten(pool.OutShape())
	fc1 := NewDense(flat.OutShape().Flat(), 32, rng)
	fc2 := NewDense(32, classes, rng)
	return NewNetwork(in,
		conv, NewReLU(conv.OutShape()), pool,
		flat,
		fc1, NewReLU(FlatShape(32)),
		fc2,
	)
}

// NewMLP builds a fully connected network: in → hidden... → classes with
// ReLU between layers. It is the default fast experiment model ("mnist" in
// the original runner).
func NewMLP(in int, hidden []int, classes int, rng *rand.Rand) *Network {
	var layers []Layer
	prev := in
	for _, h := range hidden {
		layers = append(layers, NewDense(prev, h, rng), NewReLU(FlatShape(h)))
		prev = h
	}
	layers = append(layers, NewDense(prev, classes, rng))
	return NewNetwork(FlatShape(in), layers...)
}

// CIFARCNNFlopsPerSample approximates the forward+backward FLOPs of the
// Table-1 CNN on one 32×32 image: conv1 ≈ 2·(32·32·64·75), conv2 ≈
// 2·(16·16·64·1600), dense ≈ 2·1.65M, ×3 for backward.
const CIFARCNNFlopsPerSample = (2*(32*32*64*75) + 2*(16*16*64*1600) + 2*1_650_000) * 3
