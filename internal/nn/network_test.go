package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aggregathor/internal/tensor"
)

// numericalGradient estimates dLoss/dParam by central differences over the
// network's flat parameter vector.
func numericalGradient(n *Network, x *tensor.Matrix, labels []int, eps float64) tensor.Vector {
	params := n.ParamsVector()
	grad := tensor.NewVector(params.Dim())
	for i := range params {
		orig := params[i]
		params[i] = orig + eps
		n.SetParamsVector(params)
		lp := n.lossGradient(n.Forward(x), labels)
		params[i] = orig - eps
		n.SetParamsVector(params)
		lm := n.lossGradient(n.Forward(x), labels)
		params[i] = orig
		grad[i] = (lp - lm) / (2 * eps)
	}
	n.SetParamsVector(params)
	return grad
}

func checkGradients(t *testing.T, n *Network, x *tensor.Matrix, labels []int, tol float64) {
	t.Helper()
	_, analytic := n.Gradient(x, labels)
	numeric := numericalGradient(n, x, labels, 1e-5)
	if analytic.Dim() != numeric.Dim() {
		t.Fatalf("gradient dims %d vs %d", analytic.Dim(), numeric.Dim())
	}
	for i := range analytic {
		diff := math.Abs(analytic[i] - numeric[i])
		scale := 1 + math.Abs(analytic[i]) + math.Abs(numeric[i])
		if diff/scale > tol {
			t.Fatalf("gradient mismatch at %d: analytic %v vs numeric %v", i, analytic[i], numeric[i])
		}
	}
}

func randBatch(rng *rand.Rand, rows, cols, classes int) (*tensor.Matrix, []int) {
	x := tensor.NewMatrix(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := make([]int, rows)
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	return x, y
}

func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewNetwork(FlatShape(4), NewDense(4, 3, rng))
	x, y := randBatch(rng, 5, 4, 3)
	checkGradients(t, n, x, y, 1e-6)
}

func TestMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := NewMLP(6, []int{8, 5}, 3, rng)
	x, y := randBatch(rng, 4, 6, 3)
	checkGradients(t, n, x, y, 1e-5)
}

func TestConvGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := Shape{H: 5, W: 5, C: 2}
	conv := NewConv2D(in, 3, 3, 3, 1, rng)
	flat := NewFlatten(conv.OutShape())
	n := NewNetwork(in, conv, flat, NewDense(flat.OutShape().Flat(), 2, rng))
	x, y := randBatch(rng, 2, in.Flat(), 2)
	checkGradients(t, n, x, y, 1e-5)
}

func TestMaxPoolGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := Shape{H: 6, W: 6, C: 2}
	conv := NewConv2D(in, 3, 3, 2, 1, rng)
	pool := NewMaxPool2D(conv.OutShape(), 3, 2)
	flat := NewFlatten(pool.OutShape())
	n := NewNetwork(in, conv, pool, flat, NewDense(flat.OutShape().Flat(), 2, rng))
	x, y := randBatch(rng, 2, in.Flat(), 2)
	checkGradients(t, n, x, y, 1e-5)
}

func TestReLUNetworkGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := NewNetwork(FlatShape(4),
		NewDense(4, 6, rng), NewReLU(FlatShape(6)), NewDense(6, 3, rng))
	// Offset inputs away from ReLU kinks for a clean finite-difference.
	x, y := randBatch(rng, 3, 4, 3)
	checkGradients(t, n, x, y, 1e-4)
}

func TestConvOutputShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name         string
		in           Shape
		k, stride    int
		wantH, wantW int
	}{
		{"same-s1", Shape{32, 32, 3}, 5, 1, 32, 32},
		{"same-s2", Shape{32, 32, 3}, 3, 2, 16, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConv2D(tc.in, tc.k, tc.k, 4, tc.stride, rng)
			got := c.OutShape()
			if got.H != tc.wantH || got.W != tc.wantW || got.C != 4 {
				t.Fatalf("got %v, want %dx%dx4", got, tc.wantH, tc.wantW)
			}
		})
	}
}

func TestPoolOutputShapes(t *testing.T) {
	p := NewMaxPool2D(Shape{32, 32, 64}, 3, 2)
	if got := p.OutShape(); got.H != 16 || got.W != 16 || got.C != 64 {
		t.Fatalf("pool1 out %v, want 16x16x64", got)
	}
	p2 := NewMaxPool2D(p.OutShape(), 3, 2)
	if got := p2.OutShape(); got.H != 8 || got.W != 8 || got.C != 64 {
		t.Fatalf("pool2 out %v, want 8x8x64", got)
	}
}

// Table 1: the CIFAR CNN must have the paper's ≈1.75M parameters.
func TestTable1CNNParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := NewCIFARCNN(rng)
	const want = 4864 + 102464 + (4096*384 + 384) + (384*192 + 192) + (192*10 + 10)
	if n.NumParams() != want {
		t.Fatalf("param count %d, want %d", n.NumParams(), want)
	}
	if n.NumParams() < 1_700_000 || n.NumParams() > 1_800_000 {
		t.Fatalf("param count %d outside Table 1's ~1.75M", n.NumParams())
	}
}

func TestTable1CNNForwardBackwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := NewCIFARCNN(rng)
	x, y := randBatch(rng, 2, 32*32*3, 10)
	loss, grad := n.Gradient(x, y)
	if math.IsNaN(loss) || loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
	if grad.Dim() != n.NumParams() {
		t.Fatalf("grad dim %d, want %d", grad.Dim(), n.NumParams())
	}
	if !grad.IsFinite() {
		t.Fatal("non-finite gradient")
	}
}

// TestBackwardSkipsOnlyTheUnreadInputGradient pins Network.Backward's skip:
// the flat gradient is bit for bit the one a walk computing every layer's
// input gradient fills in, on a network whose first trainable layer is a
// Dense (whose skipped pass is a matmul) and on one where it is a Conv2D
// (dCols + col2im); and the walk ends at the first layer with parameters,
// also when parameter-free layers come before it.
func TestBackwardSkipsOnlyTheUnreadInputGradient(t *testing.T) {
	img := Shape{H: 6, W: 6, C: 2}
	nets := map[string]func(rng *rand.Rand) *Network{
		"mlp": func(rng *rand.Rand) *Network { return NewMLP(img.Flat(), []int{9, 5}, 4, rng) },
		"cnn": func(rng *rand.Rand) *Network { return NewSmallCNN(img, 4, rng) },
		"flatten-first": func(rng *rand.Rand) *Network {
			return NewNetwork(img, NewFlatten(img), NewDense(img.Flat(), 4, rng))
		},
	}
	for name, build := range nets {
		n := build(rand.New(rand.NewSource(31)))
		x, y := randBatch(rand.New(rand.NewSource(32)), 5, img.Flat(), 4)
		_, got := n.Gradient(x, y)

		n.lossGradient(n.Forward(x), y)
		g := n.dLogits
		for i := len(n.layers) - 1; i >= 0; i-- {
			if g = n.layers[i].Backward(g, true); g == nil {
				t.Fatalf("%s: layer %d returned no input gradient though asked for it", name, i)
			}
		}
		want := n.grads.Clone()
		if g.Rows != x.Rows || g.Cols != x.Cols {
			t.Fatalf("%s: full walk's input gradient is %dx%d, want %dx%d", name, g.Rows, g.Cols, x.Rows, x.Cols)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: gradient[%d] = %v with the skip, %v without", name, i, got[i], want[i])
			}
		}
		for i, l := range n.layers[:n.trainFrom+1] {
			if trainable := l.NumParams() > 0; trainable != (i == n.trainFrom) {
				t.Fatalf("%s: the walk ends at layer %d, but layer %d (%s) has %d parameters", name, n.trainFrom, i, l.Name(), l.NumParams())
			}
		}
	}
}

// sameVectorBits fails unless got and want agree bit for bit.
func sameVectorBits(t *testing.T, got, want tensor.Vector, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dimension %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: coordinate %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// testNets builds the model families on a seed. twoconv is a small stack
// whose second convolution computes an input gradient (dCols + col2im), as
// the CIFAR CNN's does.
var testNets = map[string]func(seed int64) *Network{
	"mlp": func(seed int64) *Network { return NewMLP(12, []int{7, 5}, 3, rand.New(rand.NewSource(seed))) },
	"smallcnn": func(seed int64) *Network {
		return NewSmallCNN(Shape{H: 6, W: 6, C: 2}, 3, rand.New(rand.NewSource(seed)))
	},
	"twoconv": func(seed int64) *Network {
		rng := rand.New(rand.NewSource(seed))
		conv1 := NewConv2D(Shape{H: 6, W: 6, C: 2}, 3, 3, 4, 1, rng)
		pool := NewMaxPool2D(conv1.OutShape(), 2, 2)
		conv2 := NewConv2D(pool.OutShape(), 3, 3, 3, 1, rng)
		flat := NewFlatten(conv2.OutShape())
		return NewNetwork(Shape{H: 6, W: 6, C: 2},
			conv1, NewReLU(conv1.OutShape()), pool,
			conv2, NewReLU(conv2.OutShape()), flat,
			NewDense(flat.OutShape().Flat(), 3, rng),
		)
	},
	"cifarcnn": func(seed int64) *Network { return NewCIFARCNN(rand.New(rand.NewSource(seed))) },
}

// blocks returns the parameter and gradient windows of every layer with
// parameters, in layer order, weights before biases: what a layer's block
// reads and writes.
func blocks(n *Network) (params, grads []tensor.Vector) {
	for _, l := range n.layers {
		if l.NumParams() == 0 {
			continue
		}
		p := l.(interface{ blk() *block }).blk()
		params = append(params, tensor.Vector(p.w.Data), p.b)
		if p.gw != nil {
			grads = append(grads, tensor.Vector(p.gw.Data), p.gb)
		}
	}
	return params, grads
}

// TestLayerViewsAliasFlatStores: a layer's blocks are windows on the
// network's stores, laid out in layer order, weights before biases, with no
// gaps — the layout ParamsVector has always had, so a checkpoint written
// before the stores were flat loads to the same model.
func TestLayerViewsAliasFlatStores(t *testing.T) {
	for name, build := range testNets {
		n := build(41)
		if len(n.Params()) != n.NumParams() {
			t.Fatalf("%s: store holds %d parameters, NumParams %d", name, len(n.Params()), n.NumParams())
		}
		params, grads := blocks(n)
		if grads != nil {
			t.Fatalf("%s: a gradient store exists before the first backward pass", name)
		}
		off := 0
		for bi, p := range params {
			if len(p) == 0 {
				t.Fatalf("%s: block %d is empty", name, bi)
			}
			if &p[0] != &n.Params()[off] {
				t.Fatalf("%s: block %d does not start at offset %d of the store", name, bi, off)
			}
			mark := 1000 + float64(off)
			p[0] = mark // a write through the layer's view…
			if n.Params()[off] != mark || n.ParamsVector()[off] != mark {
				t.Fatalf("%s: write through block %d does not show at offset %d", name, bi, off)
			}
			off += len(p)
		}
		if off != n.NumParams() {
			t.Fatalf("%s: the layers' blocks cover %d of %d parameters", name, off, n.NumParams())
		}
		// …and a load through the store shows in the layers.
		v := n.ParamsVector()
		for i := range v {
			v[i] = float64(i)
		}
		n.SetParamsVector(v)
		n.SetParamsVector(n.Params()) // the store itself: nothing to do
		off = 0
		for bi, p := range params {
			if p[0] != float64(off) || p[len(p)-1] != float64(off+len(p)-1) {
				t.Fatalf("%s: block %d at offset %d reads %v…%v after SetParamsVector", name, bi, off, p[0], p[len(p)-1])
			}
			off += len(p)
		}
		if name == "cifarcnn" {
			continue // one backward pass of the 1.75M-parameter model is the slow part
		}
		// The gradient store is laid out the same way, once a backward pass made it.
		x, y := randBatch(rand.New(rand.NewSource(42)), 3, n.inShape.Flat(), 3)
		_, view := n.GradientView(x, y)
		_, grads = blocks(n)
		if len(grads) != len(params) {
			t.Fatalf("%s: %d gradient blocks for %d parameter blocks", name, len(grads), len(params))
		}
		off = 0
		for bi, g := range grads {
			if &g[0] != &view[off] || len(g) != len(params[bi]) {
				t.Fatalf("%s: gradient block %d is not the store at offset %d", name, bi, off)
			}
			off += len(g)
		}
	}
}

// TestGradientViewIsOverwrittenNotAccumulated: the borrowed gradient is the
// last backward pass's and nothing of an earlier one, and Gradient's copy
// survives later passes.
func TestGradientViewIsOverwrittenNotAccumulated(t *testing.T) {
	for _, name := range []string{"mlp", "smallcnn", "twoconv"} {
		n := testNets[name](43)
		rng := rand.New(rand.NewSource(44))
		x1, y1 := randBatch(rng, 4, n.inShape.Flat(), 3)
		x2, y2 := randBatch(rng, 4, n.inShape.Flat(), 3)
		_, first := n.Gradient(x1, y1)
		kept := first.Clone()
		loss2, view := n.GradientView(x2, y2)
		wantLoss, want := testNets[name](43).Gradient(x2, y2)
		if loss2 != wantLoss {
			t.Fatalf("%s: second loss %v, a fresh network's %v", name, loss2, wantLoss)
		}
		sameVectorBits(t, view, want, name+": second view vs a fresh network")
		sameVectorBits(t, first, kept, name+": Gradient's copy after a later pass")
		_, wantFirst := testNets[name](43).Gradient(x1, y1)
		sameVectorBits(t, first, wantFirst, name+": first gradient")
		if _, again := n.GradientView(x1, y1); &again[0] != &view[0] {
			t.Fatalf("%s: GradientView returned a different store on a later call", name)
		}
		sameVectorBits(t, view, wantFirst, name+": the view after the next pass")
	}
}

// TestScratchFollowsBatchShape alternates a worker's batch of 4 with an
// evaluation batch of 64 through one network: scratch sized for one must not
// leak into the other. Every result equals a fresh network's, bit for bit.
func TestScratchFollowsBatchShape(t *testing.T) {
	for _, name := range []string{"mlp", "smallcnn", "twoconv"} {
		n := testNets[name](45)
		rng := rand.New(rand.NewSource(46))
		for round := 0; round < 3; round++ {
			for _, rows := range []int{4, 64, 4} {
				x, y := randBatch(rng, rows, n.inShape.Flat(), 3)
				fresh := testNets[name](45)
				label := fmt.Sprintf("%s batch %d", name, rows)
				if got, want := n.lossGradient(n.Forward(x), y), fresh.lossGradient(fresh.Forward(x), y); got != want {
					t.Fatalf("%s: loss %v, fresh network %v", label, got, want)
				}
				if got, want := n.Accuracy(x, y), fresh.Accuracy(x, y); got != want {
					t.Fatalf("%s: accuracy %v, fresh network %v", label, got, want)
				}
				loss, grad := n.GradientView(x, y)
				wantLoss, want := fresh.Gradient(x, y)
				if loss != wantLoss {
					t.Fatalf("%s: gradient loss %v, fresh network %v", label, loss, wantLoss)
				}
				sameVectorBits(t, grad, want, label)
			}
		}
	}
}

func TestParamsVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := NewMLP(5, []int{7}, 3, rng)
	v := n.ParamsVector()
	v2 := v.Clone()
	for i := range v2 {
		v2[i] = float64(i)
	}
	n.SetParamsVector(v2)
	got := n.ParamsVector()
	for i := range got {
		if got[i] != float64(i) {
			t.Fatalf("round trip failed at %d", i)
		}
	}
}

func TestSetParamsVectorWrongDimPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := NewMLP(3, nil, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.SetParamsVector(tensor.NewVector(1))
}

// TestTrainOnReadsTheCallersVector: a network bound to a vector computes,
// bit for bit, the gradient of a twin the vector was copied into, its layer
// blocks are windows on that vector, and a backward pass leaves the vector as
// it found it. Rebinding follows the new vector; the old one is untouched.
func TestTrainOnReadsTheCallersVector(t *testing.T) {
	for _, name := range []string{"mlp", "twoconv", "cifarcnn"} {
		bound, twin := testNets[name](47), testNets[name](47)
		rng := rand.New(rand.NewSource(48))
		x, y := randBatch(rng, 2, bound.inShape.Flat(), 3)
		for round, seed := range []int64{49, 50} {
			v := testNets[name](seed).ParamsVector()
			kept := v.Clone()
			bound.TrainOn(v)
			bound.TrainOn(v) // already bound: nothing to do
			if p := bound.Params(); &p[0] != &v[0] || len(p) != len(v) {
				t.Fatalf("%s round %d: Params is not the bound vector", name, round)
			}
			params, _ := blocks(bound)
			off := 0
			for bi, p := range params {
				if &p[0] != &v[off] {
					t.Fatalf("%s round %d: block %d is not the bound vector at offset %d", name, round, bi, off)
				}
				off += len(p)
			}
			twin.SetParamsVector(v)
			label := fmt.Sprintf("%s round %d", name, round)
			loss, grad := bound.GradientView(x, y)
			wantLoss, want := twin.GradientView(x, y)
			if math.Float64bits(loss) != math.Float64bits(wantLoss) {
				t.Fatalf("%s: loss %v, the copy-loaded twin's %v", label, loss, wantLoss)
			}
			sameVectorBits(t, grad, want, label+": gradient vs the copy-loaded twin")
			sameVectorBits(t, v, kept, label+": the bound vector after a backward pass")
		}
	}
}

// TestTrainOnAllocatesNothing: binding re-points the layers' existing views,
// whether the vector is new or already bound.
func TestTrainOnAllocatesNothing(t *testing.T) {
	n := testNets["twoconv"](51)
	a, b := n.ParamsVector(), n.ParamsVector()
	flip := false
	if allocs := testing.AllocsPerRun(100, func() {
		if flip = !flip; flip {
			n.TrainOn(a)
		} else {
			n.TrainOn(b)
		}
	}); allocs != 0 {
		t.Fatalf("rebinding allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { n.TrainOn(b) }); allocs != 0 {
		t.Fatalf("binding the bound vector allocates %v times, want 0", allocs)
	}
}

func TestTrainOnWrongDimPanics(t *testing.T) {
	n := NewMLP(3, nil, 2, rand.New(rand.NewSource(11)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.TrainOn(tensor.NewVector(n.NumParams() + 1))
}

// FuzzTrainOn draws an MLP's widths and a parameter vector — its leading
// coordinates any float64 bits, NaN and ±Inf included — and requires the
// gradient of a network bound to the vector to be, bit for bit, that of a
// twin the vector was copied into, and the vector to come out unchanged.
func FuzzTrainOn(f *testing.F) {
	word := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(uint8(12), uint8(7), uint8(3), uint8(4), int64(1), word(0.5, -2))
	f.Add(uint8(5), uint8(0), uint8(2), uint8(1), int64(2), word(math.NaN(), math.Inf(1), math.Copysign(0, -1)))
	f.Add(uint8(31), uint8(17), uint8(9), uint8(7), int64(3), []byte{})
	f.Fuzz(func(t *testing.T, in, hidden, classes, rows uint8, seed int64, raw []byte) {
		nin, nclass := 1+int(in)%32, 2+int(classes)%9
		var widths []int
		if h := int(hidden) % 18; h > 0 {
			widths = []int{h}
		}
		bound := NewMLP(nin, widths, nclass, rand.New(rand.NewSource(seed)))
		twin := NewMLP(nin, widths, nclass, rand.New(rand.NewSource(seed)))
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		v := tensor.NewVector(bound.NumParams())
		for i := range v {
			if i < len(raw)/8 {
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			} else {
				v[i] = rng.NormFloat64()
			}
		}
		kept := v.Clone()
		bound.TrainOn(v)
		twin.SetParamsVector(v)
		x, y := randBatch(rng, 1+int(rows)%8, nin, nclass)
		loss, grad := bound.GradientView(x, y)
		wantLoss, want := twin.GradientView(x, y)
		if math.Float64bits(loss) != math.Float64bits(wantLoss) {
			t.Fatalf("loss %v, the copy-loaded twin's %v", loss, wantLoss)
		}
		sameVectorBits(t, grad, want, "gradient vs the copy-loaded twin")
		sameVectorBits(t, v, kept, "the bound vector after a backward pass")
	})
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.NewMatrix(1, 3)
	copy(logits.Data, []float64{1, 2, 3})
	grad := tensor.NewMatrix(1, 3)
	loss := softmaxCrossEntropy(grad, logits, []int{2})
	// p(2) = e^3/(e^1+e^2+e^3) ≈ 0.665
	wantLoss := -math.Log(math.Exp(3) / (math.Exp(1) + math.Exp(2) + math.Exp(3)))
	if math.Abs(loss-wantLoss) > 1e-12 {
		t.Fatalf("loss %v, want %v", loss, wantLoss)
	}
	var sum float64
	for _, g := range grad.Row(0) {
		sum += g
	}
	if math.Abs(sum) > 1e-12 {
		t.Fatalf("softmax gradient rows must sum to 0, got %v", sum)
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	logits := tensor.NewMatrix(1, 2)
	copy(logits.Data, []float64{1000, -1000})
	grad := tensor.NewMatrix(1, 2)
	loss := softmaxCrossEntropy(grad, logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss %v", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(g) {
			t.Fatal("NaN gradient")
		}
	}
}

func TestSoftmaxBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	softmaxCrossEntropy(tensor.NewMatrix(1, 2), tensor.NewMatrix(1, 2), []int{5})
}

func TestPredictAndAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := NewNetwork(FlatShape(2), NewDense(2, 2, rng))
	// Force weights so class = argmax(x).
	n.SetParamsVector(tensor.Vector{10, 0, 0, 10, 0, 0})
	x := tensor.NewMatrix(2, 2)
	copy(x.Data, []float64{1, 0, 0, 1})
	pred := n.Predict(x)
	if pred[0] != 0 || pred[1] != 1 {
		t.Fatalf("pred %v", pred)
	}
	if acc := n.Accuracy(x, []int{0, 1}); acc != 1 {
		t.Fatalf("accuracy %v, want 1", acc)
	}
	if acc := n.Accuracy(x, []int{1, 1}); acc != 0.5 {
		t.Fatalf("accuracy %v, want 0.5", acc)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := NewMLP(4, []int{16}, 3, rng)
	// Learnable toy task: class = argmax of first 3 inputs.
	x := tensor.NewMatrix(60, 4)
	y := make([]int, 60)
	for i := 0; i < 60; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		best := 0
		for j := 1; j < 3; j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		y[i] = best
	}
	initial := n.lossGradient(n.Forward(x), y)
	params := n.ParamsVector()
	for step := 0; step < 200; step++ {
		_, grad := n.Gradient(x, y)
		params.Axpy(-0.5, grad)
		n.SetParamsVector(params)
	}
	final := n.lossGradient(n.Forward(x), y)
	if final >= initial*0.5 {
		t.Fatalf("training did not reduce loss: %v -> %v", initial, final)
	}
	if acc := n.Accuracy(x, y); acc < 0.8 {
		t.Fatalf("train accuracy %v < 0.8", acc)
	}
}

// TestActivationLayerContracts: the layers without parameters report none
// and keep their sample shape (Flatten only renames it), so Network.bind
// never looks for a block in them.
func TestActivationLayerContracts(t *testing.T) {
	img := Shape{H: 4, W: 4, C: 2}
	for _, l := range []Layer{NewReLU(img), NewFlatten(img)} {
		if l.NumParams() != 0 {
			t.Fatalf("%s has %d parameters", l.Name(), l.NumParams())
		}
		if _, ok := l.(interface{ blk() *block }); ok {
			t.Fatalf("%s embeds a parameter block", l.Name())
		}
		if l.OutShape().Flat() != img.Flat() {
			t.Fatalf("%s shape %v, want %d values", l.Name(), l.OutShape(), img.Flat())
		}
	}
}

func TestNetworkSummaryMentionsLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := NewCIFARCNN(rng)
	s := n.Summary()
	for _, want := range []string{"conv2d", "maxpool", "dense", "total", "1756426"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestSmallCNNTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	in := Shape{H: 8, W: 8, C: 1}
	n := NewSmallCNN(in, 2, rng)
	// Task: class 1 iff top-left quadrant is bright.
	x := tensor.NewMatrix(40, in.Flat())
	y := make([]int, 40)
	for i := 0; i < 40; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = rng.Float64() * 0.1
		}
		if i%2 == 1 {
			for yy := 0; yy < 4; yy++ {
				for xx := 0; xx < 4; xx++ {
					row[yy*8+xx] = 1
				}
			}
			y[i] = 1
		}
	}
	params := n.ParamsVector()
	for step := 0; step < 60; step++ {
		_, grad := n.Gradient(x, y)
		params.Axpy(-0.3, grad)
		n.SetParamsVector(params)
	}
	if acc := n.Accuracy(x, y); acc < 0.9 {
		t.Fatalf("small CNN accuracy %v < 0.9", acc)
	}
}
