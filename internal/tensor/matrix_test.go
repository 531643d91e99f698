package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestMatMulSmall(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrix(3, 2)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	out := NewMatrix(2, 2)
	MatMul(out, a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("MatMul[%d]: got %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2))
}

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func naiveMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func matricesClose(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape (%d,%d) vs (%d,%d)", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-9) {
			t.Fatalf("%s: element %d: got %v, want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 20; iter++ {
		r, k, c := rng.Intn(6)+1, rng.Intn(6)+1, rng.Intn(6)+1
		a, b := randMatrix(rng, r, k), randMatrix(rng, k, c)
		out := NewMatrix(r, c)
		MatMul(out, a, b)
		matricesClose(t, out, naiveMatMul(a, b), "MatMul")
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 20; iter++ {
		r, k, c := rng.Intn(6)+1, rng.Intn(6)+1, rng.Intn(6)+1
		a, b := randMatrix(rng, k, r), randMatrix(rng, k, c)
		out := NewMatrix(r, c)
		MatMulTransA(out, a, b)
		// Reference: transpose a by hand.
		at := NewMatrix(r, k)
		for i := 0; i < k; i++ {
			for j := 0; j < r; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		matricesClose(t, out, naiveMatMul(at, b), "MatMulTransA")
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 20; iter++ {
		r, k, c := rng.Intn(6)+1, rng.Intn(6)+1, rng.Intn(6)+1
		a, b := randMatrix(rng, r, k), randMatrix(rng, c, k)
		out := NewMatrix(r, c)
		MatMulTransB(out, a, b)
		bt := NewMatrix(k, c)
		for i := 0; i < c; i++ {
			for j := 0; j < k; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		matricesClose(t, out, naiveMatMul(a, bt), "MatMulTransB")
	}
}

func TestAddRowVectorAndColumnSums(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 3, 4})
	m.AddRowVector(Vector{10, 20})
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Fatalf("AddRowVector: got %v", m.Data)
	}
	sums := Vector{-1, -1} // overwritten, not accumulated into
	m.ColumnSumsInto(sums)
	if sums[0] != 24 || sums[1] != 46 {
		t.Fatalf("ColumnSums: got %v", sums)
	}
}

func TestMatrixRowView(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Row(1).Fill(5)
	if m.At(1, 0) != 5 || m.At(0, 0) != 0 {
		t.Fatal("Row must be a mutable view of only that row")
	}
}

// matMulRef and matMulTransARef are the kernels MatMul and MatMulTransA
// replaced — zero the output, then one read-modify-write pass over an output
// row per (row, k) — kept as the oracles: the blocked kernels must produce
// their bits.
func matMulRef(out, a, b *Matrix) {
	for i := range out.Data {
		out.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

func matMulTransARef(out, a, b *Matrix) {
	for i := range out.Data {
		out.Data[i] = 0
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// specialMatrix draws a normal r×c matrix in which a share of the entries is
// one of 0, −0, +Inf, NaN.
func specialMatrix(rng *rand.Rand, r, c int, share float64) *Matrix {
	specials := [...]float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN()}
	m := randMatrix(rng, r, c)
	for i := range m.Data {
		if rng.Float64() < share {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// garbageMatrix is an output buffer whose prior contents a kernel must not
// read.
func garbageMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(rng.Uint64())
	}
	return m
}

// sameBits compares two matrices bit for bit, any NaN matching any NaN:
// which of two NaN payloads an add propagates depends on operand order, and
// nothing downstream reads a payload.
func sameBits(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d (row %d, col %d) = %v (%#x), reference %v (%#x)",
				label, i, i/want.Cols, i%want.Cols, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// checkMatMulKernels runs both blocked kernels on rows×inner×cols operands
// against their references: MatMul as (rows×inner)·(inner×cols), MatMulTransA
// with the same a as (rows×inner)ᵀ·(rows×cols).
func checkMatMulKernels(t *testing.T, rng *rand.Rand, rows, inner, cols int, share float64) {
	t.Helper()
	label := fmt.Sprintf("%dx%dx%d share %.1f", rows, inner, cols, share)
	a, b := specialMatrix(rng, rows, inner, share), specialMatrix(rng, inner, cols, share)
	got, want := garbageMatrix(rng, rows, cols), garbageMatrix(rng, rows, cols)
	MatMul(got, a, b)
	matMulRef(want, a, b)
	sameBits(t, got, want, "MatMul "+label)

	b = specialMatrix(rng, rows, cols, share)
	got, want = garbageMatrix(rng, inner, cols), garbageMatrix(rng, inner, cols)
	MatMulTransA(got, a, b)
	matMulTransARef(want, a, b)
	sameBits(t, got, want, "MatMulTransA "+label)
}

// convRows, convInner, convCols are NewCIFARCNN's first layer as the kernels
// see it: 32·32 patches of 5·5·3 inputs onto 64 channels. No benchmark
// workload runs a convolution, so the shape is pinned here and timed below.
const convRows, convInner, convCols = 1024, 75, 64

func TestMatMulKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, share := range []float64{0, 0.1, 0.5} {
		for _, rows := range []int{1, 2, 3, 4, 5, 8, 11} {
			for _, inner := range []int{1, 36, 37} {
				for _, cols := range []int{1, 13, 128} {
					checkMatMulKernels(t, rng, rows, inner, cols, share)
				}
			}
		}
		checkMatMulKernels(t, rng, convRows, convInner, convCols, share)
	}
}

// TestMatMulTransAKeepsPositiveZero: products that are all −0 sum to +0, as
// they did into a zero-filled accumulator.
func TestMatMulTransAKeepsPositiveZero(t *testing.T) {
	a, b, out := NewMatrix(4, 2), NewMatrix(4, 3), NewMatrix(2, 3)
	for i := range a.Data {
		a.Data[i] = -1
	}
	MatMulTransA(out, a, b) // every product is −1·0 = −0
	for i, v := range out.Data {
		if math.Float64bits(v) != 0 {
			t.Fatalf("element %d = %v (%#x), want +0", i, v, math.Float64bits(v))
		}
	}
}

func FuzzMatMul(f *testing.F) {
	f.Add(uint8(4), uint8(36), uint8(13), uint8(0), int64(1))
	f.Add(uint8(5), uint8(37), uint8(128), uint8(1), int64(2))
	f.Add(uint8(11), uint8(1), uint8(1), uint8(5), int64(3))
	f.Fuzz(func(t *testing.T, rows, inner, cols, tenths uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkMatMulKernels(t, rng, 1+int(rows)%24, 1+int(inner)%80, 1+int(cols)%140, float64(tenths%10)/10)
	})
}

// BenchmarkMatMul times the two blocked kernels on one worker's first-layer
// products at batch 4 and on the convolution shape, cycling operand sets so
// the weights come from memory as they do in a round.
func BenchmarkMatMul(b *testing.B) {
	for _, shape := range []struct {
		name              string
		rows, inner, cols int
		sets              int
	}{
		{"dense4x784x128", 4, 784, 128, 19},
		{"conv1024x75x64", convRows, convInner, convCols, 4},
	} {
		rng := rand.New(rand.NewSource(15))
		as, ws, gs := make([]*Matrix, shape.sets), make([]*Matrix, shape.sets), make([]*Matrix, shape.sets)
		outs, gws := make([]*Matrix, shape.sets), make([]*Matrix, shape.sets)
		for i := range as {
			as[i], ws[i], gs[i] = randMatrix(rng, shape.rows, shape.inner), randMatrix(rng, shape.inner, shape.cols), randMatrix(rng, shape.rows, shape.cols)
			outs[i], gws[i] = NewMatrix(shape.rows, shape.cols), NewMatrix(shape.inner, shape.cols)
		}
		b.Run("MatMul/"+shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMul(outs[i%shape.sets], as[i%shape.sets], ws[i%shape.sets])
			}
		})
		b.Run("MatMulTransA/"+shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulTransA(gws[i%shape.sets], as[i%shape.sets], gs[i%shape.sets])
			}
		})
	}
}
