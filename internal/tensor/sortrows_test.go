package tensor

import (
	"encoding/binary"
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

// TestColumnPassMatchesOnGoSort reruns every sorting kernel with the dispatch
// pointed at the Go loop: the engine's output may not depend on which tile
// sort ran. (The distance kernel's twin is gar.TestRulesMatchOnGoKernels; the
// two dispatch variables live in two packages.)
func TestColumnPassMatchesOnGoSort(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{11, 19, 20} {
		vs := trickyColumns(rng, n, 3*colTileCoords+5, true)
		forEachArg(n, func(kernel ColumnKernel, arg int) {
			got := columnPass(vs, arg, kernel)
			dispatched := sortRows
			sortRows = sortRowsGo
			want := columnPass(vs, arg, kernel)
			sortRows = dispatched
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
