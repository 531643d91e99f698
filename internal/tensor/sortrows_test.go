package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkSortRows runs the dispatched sortRows and the Go oracle over copies of
// one tile, each placed off elements into its buffer so the rows start at any
// alignment, and requires equal keys.
func checkSortRows(t *testing.T, keys []int64, w, off int, net [][2]int) {
	t.Helper()
	got := append(make([]int64, off), keys...)[off:]
	want := append(make([]int64, off), keys...)[off:]
	sortRows(got, w, net)
	sortRowsGo(want, w, net)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: w=%d off=%d rows=%d: key %d (row %d, column %d) = %#x, the Go loop gives %#x",
				Kernels(), w, off, len(keys)/max(w, 1), i, i/w, i%w, got[i], want[i])
		}
	}
}

// edgeKeys are the keys where a signed compare could go wrong, and the sort
// keys of the floats the fill loop maps to the ends of the order.
var edgeKeys = []int64{
	0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
	1 << 32, -(1 << 32), 1<<32 - 1, 1 << 31, -(1 << 31),
	sortKey(int64(math.Float64bits(math.NaN()))), sortKey(int64(math.Float64bits(math.Inf(-1)))),
	sortKey(int64(math.Float64bits(math.Copysign(0, -1)))), sortKey(int64(math.Float64bits(5e-324))),
}

// TestSortRowsMatchesGo holds the dispatched tile sort to the Go loop at
// every tile width — every count of four-key steps and every scalar
// remainder — over every row alignment, on two rows and on the networks of
// the heights the rules run at.
func TestSortRowsMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, n := range []int{2, 11, 19, 20, maxSortNet} {
		net := SortNetPairs(n)
		for w := 0; w <= colTileCoords; w++ {
			keys := make([]int64, n*w)
			for i := range keys {
				switch rng.Intn(4) {
				case 0:
					keys[i] = edgeKeys[rng.Intn(len(edgeKeys))]
				case 1:
					keys[i] = int64(rng.Intn(5)) - 2 // duplicate-heavy
				default:
					keys[i] = int64(rng.Uint64())
				}
			}
			checkSortRows(t, keys, w, w%4, net)
		}
	}
}

// TestSortRowsKeepsBoundsChecks: a network that names a row the tile does
// not have panics on either path instead of reading past the tile.
func TestSortRowsKeepsBoundsChecks(t *testing.T) {
	for name, fn := range map[string]func([]int64, int, [][2]int){"dispatched": sortRows, "go": sortRowsGo} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a pair beyond the tile did not panic", name)
				}
			}()
			fn(make([]int64, 2*8), 8, [][2]int{{0, 2}})
		}()
	}
}

// FuzzCompareExchange feeds raw keys through one compare-exchange of two
// rows: the dispatched kernel (AVX2 where Kernels says so) must leave the
// keys the Go loop leaves.
func FuzzCompareExchange(f *testing.F) {
	seed := func(keys ...int64) []byte {
		var b []byte
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint64(b, uint64(k))
		}
		return b
	}
	f.Add(uint8(1), uint8(0), seed(3, -3))
	f.Add(uint8(7), uint8(1), seed(edgeKeys...))
	f.Add(uint8(128), uint8(3), seed(edgeKeys...))
	f.Add(uint8(37), uint8(2), seed(5, 5, 4, 6, math.MinInt64, math.MaxInt64))
	f.Fuzz(func(t *testing.T, width, off uint8, raw []byte) {
		words := len(raw) / 8
		if words == 0 {
			return
		}
		w := 1 + int(width)%300
		keys := make([]int64, 2*w)
		for i := range keys {
			keys[i] = int64(binary.LittleEndian.Uint64(raw[8*(i%words):]))
		}
		checkSortRows(t, keys, w, int(off)%4, [][2]int{{0, 1}})
	})
}

// checkFillKeys runs the dispatched fill and the Go oracle over src, each
// writing off elements into its buffer so the rows start at any alignment,
// and requires equal keys and equal finite reports.
func checkFillKeys(t *testing.T, src []float64, off int) {
	t.Helper()
	got := make([]int64, off+len(src))[off:]
	want := make([]int64, off+len(src))[off:]
	gotFinite, wantFinite := fillKeys(got, src), fillKeysGo(want, src)
	if gotFinite != wantFinite {
		t.Fatalf("%s: w=%d off=%d: finite = %v, the Go loop says %v", Kernels(), len(src), off, gotFinite, wantFinite)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: w=%d off=%d: key %d of %v = %#x, the Go loop gives %#x",
				Kernels(), len(src), off, k, src[k], got[k], want[k])
		}
	}
}

// edgeFloats are the bit patterns the fill must key and flag exactly: both
// zeros, the subnormal and normal ends, both infinities and NaNs of either
// sign with payloads at both ends of the mantissa.
var edgeFloats = []uint64{
	0, 1 << 63, 1, 1<<63 | 1, 0x000f_ffff_ffff_ffff, 0x0010_0000_0000_0000,
	0x7fef_ffff_ffff_ffff, 0xffef_ffff_ffff_ffff, 0x3ff0_0000_0000_0000,
	0x7ff0_0000_0000_0000, 0xfff0_0000_0000_0000, 0x7ff0_0000_0000_0001,
	0x7ff8_0000_0000_0000, 0xfff8_0000_0000_0000, 0x7fff_ffff_ffff_ffff,
	0xffff_ffff_ffff_ffff, 0x7ff4_0000_0000_0000,
}

// TestFillKeysMatchesGo holds the dispatched fill to the Go loop at every
// row width — every count of four-value steps and every tail — over every
// alignment: on finite rows, and with one non-finite value at each position,
// so each lane of the assembly and each tail lane must raise the flag.
func TestFillKeysMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for w := 0; w <= colTileCoords; w++ {
		src := make([]float64, w)
		for k := range src {
			if rng.Intn(3) == 0 {
				src[k] = math.Float64frombits(edgeFloats[rng.Intn(9)]) // finite edges
			} else {
				src[k] = rng.NormFloat64()
			}
		}
		checkFillKeys(t, src, w%4)
		for k := range src {
			x := src[k]
			src[k] = math.Float64frombits(edgeFloats[9+rng.Intn(len(edgeFloats)-9)])
			checkFillKeys(t, src, k%4)
			src[k] = x
		}
	}
}

// FuzzFillKeys feeds raw float64 bit patterns — NaN payloads, ±Inf, ±0 and
// subnormals among them — through the fill at every row width from 1 to
// 128: the dispatched fill (AVX2 where Kernels says so) must leave the keys
// and the finite report the Go loop leaves.
func FuzzFillKeys(f *testing.F) {
	seed := func(bits ...uint64) []byte {
		var b []byte
		for _, x := range bits {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
		return b
	}
	f.Add(uint8(1), uint8(0), seed(0x7ff0_0000_0000_0000))
	f.Add(uint8(4), uint8(1), seed(edgeFloats...))
	f.Add(uint8(6), uint8(3), seed(1, 2, 3, 4, 5, 6, 0xfff8_0000_0000_0001)) // a NaN in the tail
	f.Add(uint8(127), uint8(2), seed(edgeFloats...))
	f.Fuzz(func(t *testing.T, width, off uint8, raw []byte) {
		words := len(raw) / 8
		if words == 0 {
			return
		}
		src := make([]float64, 1+int(width)%colTileCoords)
		for k := range src {
			src[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(k%words):]))
		}
		checkFillKeys(t, src, int(off)%4)
	})
}

// BenchmarkFillKeys times the fill of Bulyan's second phase at n = 19, f =
// 4, d = 100k — 11 vectors of 100k values into tile rows of 128 keys, as
// runTile does — with the dispatched fill, with the Go loop, and as a plain
// copy of the same bytes, the floor a fill bound by memory would sit on.
func BenchmarkFillKeys(b *testing.B) {
	const n, d = 11, 100_000
	vs := gradientColumns(rand.New(rand.NewSource(68)), n, d, false)
	tile := make([]int64, n*colTileCoords)
	floats := make([]float64, len(tile))
	for _, k := range []struct {
		name string
		fill func([]int64, []float64) bool
	}{{Kernels(), fillKeys}, {"go", fillKeysGo}, {"copy", nil}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(n * d * 8)
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < d; lo += colTileCoords {
					hi := min(lo+colTileCoords, d)
					w := hi - lo
					for r, v := range vs {
						if k.fill == nil {
							copy(floats[r*w:(r+1)*w], v[lo:hi])
						} else {
							k.fill(tile[r*w:(r+1)*w], v[lo:hi])
						}
					}
				}
			}
		})
	}
}

// TestColumnPassMatchesOnGoSort reruns every sorting kernel with the tile
// fill, the tile sort and the mean-around-median walk pointed at Go
// (GoKernels): the engine's output may not depend on which kernels ran. (The
// distance kernel's twin is gar.TestRulesMatchOnGoKernels; its dispatch
// variable lives in package gar.)
func TestColumnPassMatchesOnGoSort(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{11, 19, 20} {
		vs := trickyColumns(rng, n, 3*colTileCoords+5, true)
		forEachArg(n, func(kernel ColumnKernel, arg int) {
			got := columnPass(vs, arg, kernel)
			restore := GoKernels()
			want := columnPass(vs, arg, kernel)
			restore()
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s: kernel %d arg %d n=%d: coordinate %d = %v, %v on the Go sort",
						Kernels(), kernel, arg, n, j, got[j], want[j])
				}
			}
		})
	}
}

// BenchmarkSortRows times one 11 × 128 tile sort — Bulyan's second phase at
// n = 19, f = 4 — on the dispatched kernel and on the Go loop.
func BenchmarkSortRows(b *testing.B) {
	const n = 11
	net := SortNetPairs(n)
	rng := rand.New(rand.NewSource(62))
	src := make([]int64, n*colTileCoords)
	for i := range src {
		src[i] = sortKey(int64(math.Float64bits(rng.NormFloat64())))
	}
	tile := make([]int64, len(src))
	for _, k := range []struct {
		name string
		fn   func([]int64, int, [][2]int)
	}{{Kernels(), sortRows}, {"go", sortRowsGo}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(tile, src)
				k.fn(tile, colTileCoords, net)
			}
		})
	}
}

// sortedTile is the n × w tile of the sort keys of xs(i) at element i, each
// column sorted: the input meanAroundWalk gets from runTile.
func sortedTile(n, w int, xs func(i int) float64) []int64 {
	tile := make([]int64, n*w)
	for i := range tile {
		tile[i] = sortKey(int64(math.Float64bits(xs(i))))
	}
	sortRowsGo(tile, w, SortNetPairs(n))
	return tile
}

// checkMeanAroundWalk runs the dispatched walk over a sorted finite tile and
// holds every column it settles to meanAroundSorted's bits; a column
// meanAroundSorted declines must be declined. It returns how many columns the
// walk declined.
func checkMeanAroundWalk(t *testing.T, tile []int64, w, n, keep int) (declines int) {
	t.Helper()
	out := make([]float64, w)
	declined := make([]uint8, (w+3)/4)
	meanAroundWalk(tile, w, n, keep, out, declined)
	for k := 0; k < w; k++ {
		want, ok := meanAroundSorted(tile[k:], w, n, keep)
		if declined[k/4]&(1<<(k%4)) != 0 {
			declines++
			continue
		}
		if !ok || math.Float64bits(out[k]) != math.Float64bits(want) {
			col := make([]float64, n)
			for i := range col {
				col[i] = keyFloat(tile[i*w+k])
			}
			t.Fatalf("%s: n=%d w=%d keep=%d: column %d settled as %v (%#x), the Go walk gives %v (%#x) ok=%v; column %v",
				Kernels(), n, w, keep, k, out[k], math.Float64bits(out[k]), want, math.Float64bits(want), ok, col)
		}
	}
	return declines
}

// TestMeanAroundWalkSettlesRandomNormal: on Bulyan's second phase at n = 19,
// f = 4 — 11 × 100k random-normal columns, keep 3 — nothing needs the worker
// order, so the AVX2 walk declines no column and settles each with the Go
// walk's bits; the same holds at every odd height and keep. (At an even
// height the midpoint ties the two middle ranks, which the walk declines.)
func TestMeanAroundWalkSettlesRandomNormal(t *testing.T) {
	if !HasAVX2() {
		t.Skip("no AVX2 walk on this CPU: the Go walk declines every column")
	}
	rng := rand.New(rand.NewSource(64))
	normal := func(int) float64 { return rng.NormFloat64() }
	const n, d, keep = 11, 100_000, 3
	for lo := 0; lo < d; lo += colTileCoords {
		w := min(colTileCoords, d-lo)
		if declines := checkMeanAroundWalk(t, sortedTile(n, w, normal), w, n, keep); declines > w%4 {
			t.Fatalf("tile at %d: %d of %d columns declined", lo, declines, w)
		}
	}
	for n := 2; n <= maxSortNet; n++ {
		tile := sortedTile(n, colTileCoords, normal)
		for keep := 1; keep <= n; keep++ {
			if declines := checkMeanAroundWalk(t, tile, colTileCoords, n, keep); n%2 == 1 && declines > 0 {
				t.Fatalf("n=%d keep=%d: %d columns declined", n, keep, declines)
			}
		}
	}
}

// gradientColumns draws n vectors of dimension d of random-normal values;
// with zeroRuns, each column holds 2 to 6 exact zeros in random rows, as
// Bulyan's 11-value columns of the MNIST model's gradients do (zero input
// pixels times the ReLU deltas).
func gradientColumns(rng *rand.Rand, n, d int, zeroRuns bool) []Vector {
	vs := make([]Vector, n)
	for i := range vs {
		vs[i] = NewVector(d)
		for j := range vs[i] {
			vs[i][j] = rng.NormFloat64()
		}
	}
	if zeroRuns {
		for j := 0; j < d; j++ {
			for _, i := range rng.Perm(n)[:2+rng.Intn(5)] {
				vs[i][j] = 0
			}
		}
	}
	return vs
}

// columnsTile is the sorted tile of coordinates [lo, lo+w) of vs.
func columnsTile(vs []Vector, lo, w int) []int64 {
	return sortedTile(len(vs), w, func(i int) float64 { return vs[i/w][lo+i%w] })
}

// TestMeanAroundWalkSettlesEqualRuns: a run of equal values at the last
// distance the walk takes — exact zeros around a zero median, a run below a
// zero median, a run longer than any queue, mixed ±0 — is stepped past as
// the Go walk steps past it, so the walk settles every such column the Go
// walk settles, in every lane.
func TestMeanAroundWalkSettlesEqualRuns(t *testing.T) {
	if !HasAVX2() {
		t.Skip("no AVX2 walk on this CPU: the Go walk declines every column")
	}
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		col  []float64
		keep int
	}{
		{[]float64{-3, -1, 0, 0, 0, 0, 0, 0, 2, 4, 5}, 3},   // zeros left behind on both sides
		{[]float64{-3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5}, 3},    // nine zeros
		{[]float64{-2, -2, -2, 0, 3, 4, 5}, 3},              // a -2 left behind 2 below
		{[]float64{-9, -1, 0, 1, 1, 1, 1}, 3},               // a 1 left behind at the median
		{[]float64{-1, negZero, negZero, 0, 0, 0, 2}, 2},    // -0 and +0 are one value
		{[]float64{-7, -3, 0.5, 1, 1, 1, 1, 1, 1, 1, 9}, 5}, // ones past either end of a queue
	} {
		n, w := len(c.col), 8
		tile := sortedTile(n, w, func(i int) float64 { return c.col[i/w] })
		if _, ok := meanAroundSorted(tile, w, n, c.keep); !ok {
			t.Fatalf("%v keep %d: the Go walk declines it; pick a column it settles", c.col, c.keep)
		}
		if declines := checkMeanAroundWalk(t, tile, w, n, c.keep); declines != 0 {
			t.Errorf("%v keep %d: %d of %d columns declined", c.col, c.keep, declines, w)
		}
	}
	rng := rand.New(rand.NewSource(69))
	const n, d, keep = 11, 20 * colTileCoords, 3
	vs := gradientColumns(rng, n, d, true)
	for lo := 0; lo < d; lo += colTileCoords {
		tile := columnsTile(vs, lo, colTileCoords)
		if declines := checkMeanAroundWalk(t, tile, colTileCoords, n, keep); declines > 0 {
			t.Fatalf("zero runs, tile at %d: %d of %d columns declined", lo, declines, colTileCoords)
		}
	}
}

// TestMeanAroundWalkDeclinesTies: the columns where the Go walk needs the
// worker order — two distinct values at one distance as the candidates of a
// step, a distinct value as far out as the one taken last on the same side,
// and one left behind at the last distance below or above — are declined by
// the walk, in every lane.
func TestMeanAroundWalkDeclinesTies(t *testing.T) {
	for _, c := range []struct {
		col  []float64
		keep int
	}{
		{[]float64{0, 1, 2}, 2},                     // 0 and 2 both 1 from the median
		{[]float64{1e-20, 2e-20, 1, 5, 9}, 3},       // 2e-20, then 1e-20, both 1 below
		{[]float64{-2e-20, -1e-20, 1, 3, 9}, 2},     // -2e-20 left behind 1 below
		{[]float64{-9, -3, -1, 1e-20, 2e-20}, 2},    // 2e-20 left behind 1 above
		{[]float64{-7, -3, 0.5, 1, 1.5, 2, 2.5}, 4}, // 0.5 and 2.5 after 1 and 2
	} {
		n, w := len(c.col), 8
		tile := sortedTile(n, w, func(i int) float64 { return c.col[i/w] })
		if _, ok := meanAroundSorted(tile, w, n, c.keep); ok {
			t.Fatalf("%v keep %d: the Go walk settles it; pick a column it declines", c.col, c.keep)
		}
		if declines := checkMeanAroundWalk(t, tile, w, n, c.keep); declines != w {
			t.Errorf("%v keep %d: %d of %d columns declined", c.col, c.keep, declines, w)
		}
	}
}

// FuzzMeanAroundWalk feeds raw float64 bit patterns, made finite, through
// sorted tiles of every height the walk serves: each column the dispatched
// walk (AVX2 where Kernels says so) settles has the Go walk's bits, and it
// declines every column the Go walk declines.
func FuzzMeanAroundWalk(f *testing.F) {
	seed := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(uint8(11), uint8(3), uint8(127), seed(0.5, -1.25, 3, 1e-3, -7, 2.5, 0.125))
	f.Add(uint8(4), uint8(2), uint8(8), seed(-3, -1, 2, 7, 0, math.Copysign(0, -1)))
	f.Add(uint8(5), uint8(2), uint8(12), seed(1e-20, 2e-20, 1, 3, 4, math.MaxFloat64, -math.MaxFloat64))
	f.Add(uint8(19), uint8(15), uint8(64), seed(1, -1, 0.5, -0.5, 2, 2, 0, 0, 1e308, -1e308))
	f.Add(uint8(2), uint8(1), uint8(5), seed(3, 1, 2))
	f.Fuzz(func(t *testing.T, height, keep, width uint8, raw []byte) {
		words := len(raw) / 8
		if words == 0 {
			return
		}
		n := 1 + int(height)%maxSortNet
		w := 1 + int(width)%colTileCoords
		tile := sortedTile(n, w, func(i int) float64 {
			bits := binary.LittleEndian.Uint64(raw[8*(i%words):])
			if x := math.Float64frombits(bits); !math.IsNaN(x) && !math.IsInf(x, 0) {
				return x
			}
			return math.Float64frombits(bits &^ (1 << 62)) // a finite exponent
		})
		checkMeanAroundWalk(t, tile, w, n, 1+int(keep)%n)
	})
}

// columnShapes are the benchmarks' column shapes: random normal, which
// never ties, and the zero runs of the workload's gradients.
var columnShapes = []struct {
	name     string
	zeroRuns bool
}{{"normal", false}, {"zero-runs", true}}

// BenchmarkMeanAroundWalk times the walk alone over one sorted tile of each
// column shape — 11 × 128, keep 3 (Bulyan's second phase at n = 19, f = 4)
// and 19 × 128, keep 15 (the mean-around-median rule there) — with the
// dispatched walk and with meanAroundSorted on every column.
func BenchmarkMeanAroundWalk(b *testing.B) {
	rng := rand.New(rand.NewSource(66))
	const w = colTileCoords
	out := make([]float64, w)
	declined := make([]uint8, w/4)
	for _, shape := range []struct{ n, keep int }{{11, 3}, {19, 15}} {
		n, keep := shape.n, shape.keep
		for _, cols := range columnShapes {
			tile := columnsTile(gradientColumns(rng, n, w, cols.zeroRuns), 0, w)
			b.Run(fmt.Sprintf("n%d-keep%d/%s/%s", n, keep, cols.name, Kernels()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					meanAroundWalk(tile, w, n, keep, out, declined)
				}
			})
			b.Run(fmt.Sprintf("n%d-keep%d/%s/go", n, keep, cols.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for k := range out {
						out[k], _ = meanAroundSorted(tile[k:], w, n, keep)
					}
				}
			})
		}
	}
}

// BenchmarkMeanAroundPass times Bulyan's second phase at n = 19, f = 4, d =
// 100k — the column pass over 11 vectors of each column shape, keep 3 —
// with the dispatched walk and with the Go walk.
func BenchmarkMeanAroundPass(b *testing.B) {
	const n, d, keep = 11, 100_000, 3
	rng := rand.New(rand.NewSource(65))
	out := NewVector(d)
	for _, cols := range columnShapes {
		vs := gradientColumns(rng, n, d, cols.zeroRuns)
		for _, k := range []struct {
			name string
			walk func(tile []int64, w, n, keep int, out []float64, declined []uint8)
		}{{Kernels(), meanAroundWalk}, {"go", meanAroundWalkGo}} {
			b.Run(cols.name+"/"+k.name, func(b *testing.B) {
				walk := meanAroundWalk
				meanAroundWalk = k.walk
				defer func() { meanAroundWalk = walk }()
				var e ColumnEngine
				for i := 0; i < b.N; i++ {
					e.Run(out, vs, keep, MeanAroundMedianKernel)
				}
			})
		}
	}
}

// BenchmarkColumnPassSparseNaN times the median at n = 19, d = 100k on clean
// gradients and with one NaN per 1,000 values of every gradient: nine tiles
// in ten then hold a NaN, in two or three of their 128 columns, and only
// those columns may pay the per-column kernel.
func BenchmarkColumnPassSparseNaN(b *testing.B) {
	const n, d = 19, 100_000
	rng := rand.New(rand.NewSource(63))
	clean, sparse := make([]Vector, n), make([]Vector, n)
	for i := range clean {
		clean[i] = NewVector(d)
		for j := range clean[i] {
			clean[i][j] = rng.NormFloat64()
		}
		sparse[i] = clean[i].Clone()
	}
	for _, v := range sparse {
		for j := 0; j < d; j += 1000 {
			v[j+rng.Intn(1000)] = math.NaN()
		}
	}
	out := NewVector(d)
	for _, c := range []struct {
		name string
		vs   []Vector
	}{{"clean", clean}, {"nan-per-1000", sparse}} {
		b.Run(c.name, func(b *testing.B) {
			var e ColumnEngine
			b.SetBytes(n * d * 8)
			for i := 0; i < b.N; i++ {
				e.Run(out, c.vs, 0, MedianKernel)
			}
		})
	}
}
