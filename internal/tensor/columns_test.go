package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// columnOracle runs the exact per-column kernel on every coordinate: the
// definition the tile-wide pass must reproduce bit for bit.
func columnOracle(vs []Vector, arg int, kernel ColumnKernel) Vector {
	n := len(vs)
	s := colScratch{
		col: make([]float64, n), tmp: make([]float64, n),
		dist: make([]float64, n), idx: make([]int, n),
	}
	out := NewVector(len(vs[0]))
	for j := range out {
		out[j] = kernel.column(&s, vs, j, arg)
	}
	return out
}

// columnPass runs kernel over vs on a fresh engine.
func columnPass(vs []Vector, arg int, kernel ColumnKernel) Vector {
	out := NewVector(len(vs[0]))
	new(ColumnEngine).Run(out, vs, arg, kernel)
	return out
}

// checkColumnPass runs the engine over vs and requires every output bit to
// match the oracle.
func checkColumnPass(t *testing.T, e *ColumnEngine, vs []Vector, arg int, kernel ColumnKernel) {
	t.Helper()
	want := columnOracle(vs, arg, kernel)
	got := NewVector(len(want))
	e.Run(got, vs, arg, kernel)
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			col := make([]float64, len(vs))
			for i, v := range vs {
				col[i] = v[j]
			}
			t.Fatalf("kernel %d arg %d n=%d d=%d: coordinate %d = %v (%#x), per-column kernel gives %v (%#x); column %v",
				kernel, arg, len(vs), len(want), j, got[j], math.Float64bits(got[j]),
				want[j], math.Float64bits(want[j]), col)
		}
	}
}

// forEachArg calls fn with every kernel and every rule argument valid at n.
func forEachArg(n int, fn func(kernel ColumnKernel, arg int)) {
	fn(MedianKernel, 0)
	fn(NaNMeanKernel, 0)
	for b := 0; 2*b < n; b++ {
		fn(TrimmedMeanKernel, b)
	}
	for keep := 1; keep <= n; keep++ {
		fn(MeanAroundMedianKernel, keep)
	}
}

// trickyColumns draws n vectors of dimension d whose columns cycle through
// the shapes that decide between the tile-wide pass and the per-column
// kernels: plain noise, duplicate-heavy small integers with both zeros,
// x/−x pairs around a zero median, values that round to one distance from
// the median, magnitudes whose distance overflows, and — in odd tiles only
// when nonFinite is set, so even tiles stay on the tile-wide pass — ±Inf, a
// single NaN and an all-NaN column. Rows 0 and 1 are duplicates.
func trickyColumns(rng *rand.Rand, n, d int, nonFinite bool) []Vector {
	vs := make([]Vector, n)
	for i := range vs {
		vs[i] = NewVector(d)
	}
	negZero := math.Copysign(0, -1)
	for j := 0; j < d; j++ {
		shape := rng.Intn(6)
		for i := 0; i < n; i++ {
			var x float64
			switch shape {
			case 0:
				x = rng.NormFloat64()
			case 1:
				x = float64(rng.Intn(5) - 2)
				if x == 0 && rng.Intn(2) == 0 {
					x = negZero
				}
			case 2:
				x = float64(rng.Intn(4)) * 0.25 * float64(1-2*rng.Intn(2))
			case 3:
				x = []float64{1, 1e-20, 2e-20, -1e-20, 3, 1 + 1e-15}[rng.Intn(6)]
			case 4:
				x = []float64{math.MaxFloat64, -math.MaxFloat64, 1e308, -1e308, 0, 1}[rng.Intn(6)]
			default:
				x = rng.NormFloat64() * 1e-3
			}
			vs[i][j] = x
		}
		if nonFinite && (j/colTileCoords)%2 == 1 {
			switch rng.Intn(4) {
			case 0:
				vs[rng.Intn(n)][j] = math.Inf(1 - 2*rng.Intn(2))
			case 1:
				vs[rng.Intn(n)][j] = math.NaN()
			case 2:
				for i := range vs {
					vs[i][j] = math.NaN()
				}
			}
		}
	}
	if n > 1 {
		copy(vs[1], vs[0])
	}
	return vs
}

// TestColumnEngineTileMatchesPerColumn pins the tile-wide pass to the exact
// per-column kernels over every column height the networks serve (and one
// they do not), dimensions around the tile width and every rule argument.
func TestColumnEngineTileMatchesPerColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	var e ColumnEngine
	heights := []int{65}
	for n := 1; n <= 25; n++ {
		heights = append(heights, n)
	}
	for _, n := range heights {
		for _, d := range []int{1, 127, 128, 129, 1000} {
			for _, nonFinite := range []bool{false, true} {
				vs := trickyColumns(rng, n, d, nonFinite)
				forEachArg(n, func(kernel ColumnKernel, arg int) {
					checkColumnPass(t, &e, vs, arg, kernel)
				})
			}
		}
	}
}

// sortKeys is xs as a one-column tile.
func sortKeys(xs ...float64) []int64 {
	keys := make([]int64, len(xs))
	for i, x := range xs {
		keys[i] = sortKey(int64(math.Float64bits(x)))
	}
	return keys
}

// TestMeanAroundSortedCoversEvenHeights: the tie the midpoint of an
// even-height column makes with its two middle rows is taken on the tile
// (keep ≥ 2), and left to the per-column kernel only when the worker order
// decides which of the two is kept (keep = 1).
func TestMeanAroundSortedCoversEvenHeights(t *testing.T) {
	col := sortKeys(-3, -1, 2, 7) // midpoint 0.5, 1.5 away from both middles
	for keep := 2; keep <= 4; keep++ {
		got, ok := meanAroundSorted(col, 1, 4, keep)
		want := []float64{0, 0, 1.0 / 2, -2.0 / 3, 5.0 / 4}[keep]
		if !ok || got != want {
			t.Errorf("keep=%d: got %v ok=%v, want %v on the tile", keep, got, ok, want)
		}
	}
	if _, ok := meanAroundSorted(col, 1, 4, 1); ok {
		t.Error("keep=1: a tie between two distinct values was decided without the worker order")
	}
	// Three values at one distance: the order of the sum is the worker's.
	if _, ok := meanAroundSorted(sortKeys(-1, -1, 1, 5), 1, 4, 3); ok {
		t.Error("a three-way tie was summed without the worker order")
	}
	// Distinct values left of the median that round to one distance.
	if _, ok := meanAroundSorted(sortKeys(1e-20, 2e-20, 1, 3, 4), 1, 5, 2); ok {
		t.Error("two distinct values at one rounded distance were told apart")
	}
}

// TestMedianZeroSign: a zero median has the sign of the middle value when
// -0 sorts before +0, whatever order the values arrive in.
func TestMedianZeroSign(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = []float64{0, negZero, 0, negZero, -1, 1, 5e-324, -5e-324}[rng.Intn(8)]
		}
		ref := append([]float64(nil), xs...)
		sort.Slice(ref, func(a, b int) bool {
			return ref[a] < ref[b] || (ref[a] == ref[b] && math.Signbit(ref[a]) && !math.Signbit(ref[b]))
		})
		want := ref[n/2]
		if n%2 == 0 {
			want = midpoint(ref[n/2-1], ref[n/2])
		}
		got := MedianInPlace(append([]float64(nil), xs...))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: median %v (%#x), want %v (%#x) for %v",
				trial, got, math.Float64bits(got), want, math.Float64bits(want), xs)
		}
	}
}

// FuzzColumnPass feeds raw float64 bit patterns through every kernel: the
// engine must match the per-column kernels bit for bit.
func FuzzColumnPass(f *testing.F) {
	seed := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(uint8(3), uint16(2), uint8(1), seed(-3, -1, 2, 7, 0, math.Copysign(0, -1)))
	f.Add(uint8(4), uint16(129), uint8(1), seed(1e-20, 2e-20, 1, 3, 4, math.MaxFloat64, -math.MaxFloat64))
	f.Add(uint8(18), uint16(199), uint8(14), seed(1, -1, 0.5, -0.5, math.NaN(), math.Inf(1), 2, 2))
	f.Add(uint8(69), uint16(1), uint8(30), seed(3, 1, 2))
	f.Fuzz(func(t *testing.T, n uint8, d uint16, arg uint8, raw []byte) {
		words := len(raw) / 8
		if words == 0 {
			return
		}
		nv, dim := 1+int(n)%72, 1+int(d)%300
		vs := make([]Vector, nv)
		for i := range vs {
			vs[i] = NewVector(dim)
			for j := range vs[i] {
				w := (i*dim + j) % words
				vs[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*w:]))
			}
		}
		var e ColumnEngine
		checkColumnPass(t, &e, vs, 0, MedianKernel)
		checkColumnPass(t, &e, vs, 0, NaNMeanKernel)
		checkColumnPass(t, &e, vs, int(arg)%((nv+1)/2), TrimmedMeanKernel)
		checkColumnPass(t, &e, vs, 1+int(arg)%nv, MeanAroundMedianKernel)
	})
}
