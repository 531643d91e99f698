package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// eqFloat treats all NaNs as one equivalence class and is otherwise exact
// (distinguishing ±0 is not required by the kernels' contract).
func eqFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

// adversarialSlice draws a value slice whose entries are NaN/±Inf with the
// given probability — the Byzantine column shapes the kernels must survive.
func adversarialSlice(rng *rand.Rand, n int, pBad float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch {
		case rng.Float64() < pBad:
			switch rng.Intn(3) {
			case 0:
				xs[i] = math.NaN()
			case 1:
				xs[i] = math.Inf(1)
			default:
				xs[i] = math.Inf(-1)
			}
		case rng.Float64() < 0.3:
			// Duplicate-heavy region to exercise tie handling.
			xs[i] = float64(rng.Intn(4))
		default:
			xs[i] = rng.NormFloat64()
		}
	}
	return xs
}

// medianSortRef is the previous sort-based median: sort with NaN first,
// skip NaNs, midpoint the middles.
func medianSortRef(xs []float64) float64 {
	clean := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	if len(clean) == 0 {
		return math.NaN()
	}
	sort.Float64s(clean)
	mid := len(clean) / 2
	if len(clean)%2 == 1 {
		return clean[mid]
	}
	return midpoint(clean[mid-1], clean[mid])
}

func TestMedianInPlaceMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(40)
		pBad := 0.0
		if trial%3 == 1 {
			pBad = 0.2
		} else if trial%3 == 2 {
			pBad = 0.9
		}
		xs := adversarialSlice(rng, n, pBad)
		want := medianSortRef(xs)
		got := MedianInPlace(append([]float64(nil), xs...))
		if !eqFloat(got, want) {
			t.Fatalf("trial %d: MedianInPlace=%v want %v for %v", trial, got, want, xs)
		}
	}
}

// trimmedMeanSortRef is the previous sort-based per-coordinate trim kernel.
func trimmedMeanSortRef(col []float64, b int) float64 {
	xs := append([]float64(nil), col...)
	sort.Float64s(xs)
	kept := xs[b : len(xs)-b]
	var s float64
	for _, x := range kept {
		s += x
	}
	return s / float64(len(kept))
}

func TestTrimmedMeanColumnMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5000; trial++ {
		n := 3 + rng.Intn(37)
		b := rng.Intn((n+1)/2 - 1 + 1)
		if 2*b >= n {
			b = (n - 1) / 2
		}
		pBad := []float64{0, 0.2, 0.9}[trial%3]
		xs := adversarialSlice(rng, n, pBad)
		want := trimmedMeanSortRef(xs, b)
		got := trimmedMeanColumn(append([]float64(nil), xs...), b)
		if !eqFloat(got, want) {
			t.Fatalf("trial %d: trimmedMeanColumn(b=%d)=%v want %v for %v", trial, b, got, want, xs)
		}
	}
}

func TestSmallestKIntoMatchesArgsort(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	dst := make([]int, 64)
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(40)
		k := rng.Intn(n + 1)
		xs := adversarialSlice(rng, n, []float64{0, 0.3}[trial%2])
		want := ArgsortAscending(xs)[:k]
		got := SmallestKInto(dst, xs, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: SmallestKInto(k=%d)=%v want %v for %v", trial, k, got, want, xs)
			}
		}
	}
}

// closestToPivotRef is the previous allocation-heavy implementation.
func closestToPivotRef(xs []float64, pivot float64, k int) []int {
	dist := make([]float64, len(xs))
	for i, x := range xs {
		d := math.Abs(x - pivot)
		if math.IsNaN(d) {
			d = math.Inf(1)
		}
		dist[i] = d
	}
	return ArgsortAscending(dist)[:k]
}

func TestClosestToPivotIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	dst := make([]int, 64)
	dscratch := make([]float64, 64)
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(40)
		k := rng.Intn(n + 1)
		xs := adversarialSlice(rng, n, []float64{0, 0.3}[trial%2])
		pivot := rng.NormFloat64()
		want := closestToPivotRef(xs, pivot, k)
		got := ClosestToPivotInto(dst, dscratch, xs, pivot, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: ClosestToPivotInto=%v want %v", trial, got, want)
			}
		}
	}
}

func TestSelectSmallestFloatMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(60)
		k := rng.Intn(n + 1)
		xs := adversarialSlice(rng, n, []float64{0, 0.3}[trial%2])
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		got := append([]float64(nil), xs...)
		SelectSmallestFloat(got, k)
		for i := 0; i < k; i++ {
			if !eqFloat(got[i], want[i]) {
				t.Fatalf("trial %d: prefix %d: got %v want %v", trial, i, got[:k], want[:k])
			}
		}
	}
}

func TestSortFloatsMatchesSortPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(200)
		xs := adversarialSlice(rng, n, []float64{0, 0.3}[trial%2])
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		got := append([]float64(nil), xs...)
		SortFloats(got)
		for i := range want {
			if !eqFloat(got[i], want[i]) {
				t.Fatalf("trial %d: position %d: got %v want %v", trial, i, got, want)
			}
		}
	}
}

func TestSortNetSortsEverySupportedSize(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for n := 0; n <= maxSortNet; n++ {
		pairs := SortNetPairs(n)
		for _, pr := range pairs {
			if pr[0] >= pr[1] || pr[1] >= n {
				t.Fatalf("n=%d: invalid pair %v", n, pr)
			}
		}
		for trial := 0; trial < 50; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(8)) // duplicate-heavy
			}
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			keys := sortKeys(xs...)
			sortRows(keys, 1, pairs)
			for i := range want {
				if xs[i] = keyFloat(keys[i]); xs[i] != want[i] {
					t.Fatalf("n=%d trial %d: network produced %v want %v", n, trial, xs, want)
				}
			}
		}
	}
}

func TestPartialSelectFloatPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(80)
		xs := adversarialSlice(rng, n, []float64{0, 0.3}[trial%2])
		xs = xs[moveNaNsFront(xs):]
		k := rng.Intn(len(xs) + 1)
		partialSelectNoNaN(xs, k)
		for i := 0; i < k; i++ {
			for j := k; j < len(xs); j++ {
				if xs[j] < xs[i] {
					t.Fatalf("trial %d: xs[%d]=%v < xs[%d]=%v after select k=%d", trial, j, xs[j], i, xs[i], k)
				}
			}
		}
	}
}

// TestColumnEngineGOMAXPROCSParity proves the blocked column pass is
// scheduler-independent: the same kernels over the same vectors produce
// bit-identical output at GOMAXPROCS=1 (one goroutine) and GOMAXPROCS=8 (the
// tiles spread over eight) for a dimension well past the parallel threshold. The first and
// last tiles hold a non-finite value and take the per-column kernels, the
// rest are sorted tile-wide; the even height has the midpoint ties.
func TestColumnEngineGOMAXPROCSParity(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	const d = 3 * colParallelMin
	for _, n := range []int{19, 18} {
		vs := make([]Vector, n)
		for i := range vs {
			v := NewVector(d)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			if i == 3 {
				v[7] = math.NaN()
				v[d-1] = math.Inf(1)
			}
			vs[i] = v
		}
		run := func(procs int, kernel ColumnKernel, arg int) Vector {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			return columnPass(vs, arg, kernel)
		}
		kernels := []struct {
			name   string
			kernel ColumnKernel
			arg    int
		}{
			{"median", MedianKernel, 0},
			{"trimmed-mean", TrimmedMeanKernel, 4},
			{"nan-mean", NaNMeanKernel, 0},
			{"mean-around-median", MeanAroundMedianKernel, 11},
		}
		for _, k := range kernels {
			base, got := run(1, k.kernel, k.arg), run(8, k.kernel, k.arg)
			for j := range base {
				if math.Float64bits(got[j]) != math.Float64bits(base[j]) {
					t.Fatalf("%s n=%d: GOMAXPROCS=8 diverges at %d: %v vs %v", k.name, n, j, got[j], base[j])
				}
			}
		}
	}
}
