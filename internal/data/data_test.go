package data

import (
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/nn"
	"aggregathor/internal/tensor"
)

func TestGenerateDeterministic(t *testing.T) {
	a := SyntheticFeatures(100, 8, 4, 7)
	b := SyntheticFeatures(100, 8, 4, 7)
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed must generate identical data")
		}
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("same seed must generate identical labels")
		}
	}
	c := SyntheticFeatures(100, 8, 4, 8)
	same := true
	for i := range a.X.Data {
		if a.X.Data[i] != c.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds generated identical data")
	}
}

func TestGenerateBalancedLabels(t *testing.T) {
	ds := SyntheticFeatures(100, 4, 4, 1)
	counts := make([]int, 4)
	for _, y := range ds.Y {
		if y < 0 || y >= 4 {
			t.Fatalf("label %d out of range", y)
		}
		counts[y]++
	}
	for c, n := range counts {
		if n != 25 {
			t.Fatalf("class %d has %d samples, want 25", c, n)
		}
	}
}

func TestGenerateShapes(t *testing.T) {
	ds := SyntheticCIFAR(20, 1)
	if ds.Shape.Flat() != 32*32*3 {
		t.Fatalf("CIFAR flat dim %d", ds.Shape.Flat())
	}
	if ds.X.Rows != 20 || ds.X.Cols != 3072 {
		t.Fatalf("CIFAR X %dx%d", ds.X.Rows, ds.X.Cols)
	}
	m := SyntheticMNIST(10, 1)
	if m.Shape.Flat() != 784 {
		t.Fatalf("MNIST flat dim %d", m.Shape.Flat())
	}
}

func TestMinMaxScale(t *testing.T) {
	ds := SyntheticFeatures(50, 6, 3, 2)
	ds.MinMaxScale()
	for j := 0; j < ds.X.Cols; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < ds.X.Rows; i++ {
			v := ds.X.At(i, j)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if lo < 0 || hi > 1 {
			t.Fatalf("feature %d range [%v,%v] outside [0,1]", j, lo, hi)
		}
		if hi-lo < 0.99 {
			t.Fatalf("feature %d not stretched to full range: [%v,%v]", j, lo, hi)
		}
	}
}

func TestSplit(t *testing.T) {
	ds := SyntheticFeatures(60, 4, 3, 3)
	train, test := ds.Split(5.0 / 6.0)
	if train.Len() != 50 || test.Len() != 10 {
		t.Fatalf("split %d/%d, want 50/10", train.Len(), test.Len())
	}
	if train.Classes != 3 || test.Classes != 3 {
		t.Fatal("split lost class count")
	}
}

func TestSplitBadFractionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SyntheticFeatures(10, 2, 2, 1).Split(1.5)
}

func TestSliceIsCopy(t *testing.T) {
	ds := SyntheticFeatures(10, 2, 2, 4)
	s := ds.Slice(0, 5)
	s.X.Set(0, 0, 12345)
	if ds.X.At(0, 0) == 12345 {
		t.Fatal("Slice aliases parent storage")
	}
}

func TestBatch(t *testing.T) {
	ds := SyntheticFeatures(10, 3, 2, 5)
	x, y := ds.Batch([]int{2, 7})
	if x.Rows != 2 || len(y) != 2 {
		t.Fatalf("batch shape %dx%d / %d labels", x.Rows, x.Cols, len(y))
	}
	if y[0] != ds.Y[2] || y[1] != ds.Y[7] {
		t.Fatal("batch labels misaligned")
	}
	for j := 0; j < 3; j++ {
		if x.At(0, j) != ds.X.At(2, j) {
			t.Fatal("batch rows misaligned")
		}
	}
}

func TestUniformSamplerDeterministicPerSeed(t *testing.T) {
	ds := SyntheticFeatures(100, 4, 4, 6)
	s1 := NewUniformSampler(ds, 42)
	s2 := NewUniformSampler(ds, 42)
	x1, y1 := s1.Sample(8)
	x2, y2 := s2.Sample(8)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("same-seed samplers diverged")
		}
	}
	for i := range x1.Data {
		if x1.Data[i] != x2.Data[i] {
			t.Fatal("same-seed samplers diverged on data")
		}
	}
}

// TestUniformSamplerOwnsItsBatch: every draw refills the sampler's one batch,
// with no allocation once its size is set, and holds the rows Dataset.Batch
// materialises for the same draws of the seed.
func TestUniformSamplerOwnsItsBatch(t *testing.T) {
	ds := SyntheticFeatures(50, 3, 3, 8)
	s := NewUniformSampler(ds, 5)
	rng := rand.New(rand.NewSource(5))
	var first *tensor.Matrix
	for draw := 0; draw < 5; draw++ {
		x, y := s.Sample(6)
		if first == nil {
			first = x
		} else if x != first {
			t.Fatalf("draw %d: a new batch matrix", draw)
		}
		idx := make([]int, 6)
		for i := range idx {
			idx[i] = rng.Intn(ds.Len())
		}
		wx, wy := ds.Batch(idx)
		for i := range wy {
			if y[i] != wy[i] {
				t.Fatalf("draw %d: label %d = %d, Dataset.Batch gives %d", draw, i, y[i], wy[i])
			}
		}
		for i := range wx.Data {
			if x.Data[i] != wx.Data[i] {
				t.Fatalf("draw %d: input %d = %v, Dataset.Batch gives %v", draw, i, x.Data[i], wx.Data[i])
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Sample(6) }); allocs != 0 {
		t.Fatalf("a draw allocates %v objects", allocs)
	}
}

func TestUniformSamplerCoversDataset(t *testing.T) {
	ds := SyntheticFeatures(20, 2, 2, 7)
	s := NewUniformSampler(ds, 1)
	seen := map[float64]bool{}
	for i := 0; i < 50; i++ {
		x, _ := s.Sample(10)
		for r := 0; r < x.Rows; r++ {
			seen[x.At(r, 0)] = true
		}
	}
	if len(seen) < 15 {
		t.Fatalf("sampler visited only %d distinct samples of 20", len(seen))
	}
}

func TestSamplerBadBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUniformSampler(SyntheticFeatures(5, 2, 2, 1), 1).Sample(0)
}

func TestGarbagePixels(t *testing.T) {
	ds := SyntheticFeatures(30, 4, 2, 9)
	ds.MinMaxScale()
	s := &CorruptedSampler{Inner: NewUniformSampler(ds, 3), Rng: rand.New(rand.NewSource(4))}
	x, _ := s.Sample(10)
	big := 0
	for _, v := range x.Data {
		if math.Abs(v) > 1 {
			big++
		}
	}
	if big < len(x.Data)/2 {
		t.Fatalf("garbage pixels too tame: %d of %d outside [-1,1]", big, len(x.Data))
	}
}

func TestSmoothPrototypeHasSpatialStructure(t *testing.T) {
	// Neighbouring pixels of a prototype must correlate more than distant
	// ones (the property convolutions exploit).
	rng := rand.New(rand.NewSource(10))
	shape := nn.Shape{H: 16, W: 16, C: 1}
	p := smoothPrototype(rng, shape)
	var nearDiff, farDiff float64
	var count int
	for y := 0; y < 16; y++ {
		for x := 0; x+8 < 16; x++ {
			base := p[y*16+x]
			nearDiff += math.Abs(base - p[y*16+x+1])
			farDiff += math.Abs(base - p[y*16+x+8])
			count++
		}
	}
	if nearDiff/float64(count) >= farDiff/float64(count) {
		t.Fatalf("no spatial structure: near %v >= far %v", nearDiff, farDiff)
	}
}

func TestMLPLearnsSyntheticTask(t *testing.T) {
	// End-to-end sanity: the synthetic task is actually learnable well
	// above chance by a small model.
	ds := SyntheticFeatures(300, 16, 4, 11)
	ds.MinMaxScale()
	train, test := ds.Split(0.8)
	rng := rand.New(rand.NewSource(12))
	model := nn.NewMLP(16, []int{32}, 4, rng)
	sampler := NewUniformSampler(train, 13)
	params := model.ParamsVector()
	for step := 0; step < 300; step++ {
		x, y := sampler.Sample(32)
		_, grad := model.Gradient(x, y)
		params.Axpy(-0.5, grad)
		model.SetParamsVector(params)
	}
	if acc := model.Accuracy(test.X, test.Y); acc < 0.6 {
		t.Fatalf("test accuracy %v, want > 0.6 (chance = 0.25)", acc)
	}
}
