package tensor

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// ArgsortAscending is the sort-based definition of SmallestKInto's order:
// the indexes of xs by ascending value, NaN last, ties by ascending index.
func ArgsortAscending(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		xa, xb := xs[idx[a]], xs[idx[b]]
		if math.IsNaN(xa) {
			return false
		}
		if math.IsNaN(xb) {
			return true
		}
		return xa < xb
	})
	return idx
}

func TestArgsortAscending(t *testing.T) {
	idx := ArgsortAscending([]float64{3, 1, 2})
	if idx[0] != 1 || idx[1] != 2 || idx[2] != 0 {
		t.Fatalf("got %v", idx)
	}
}

func TestArgsortNaNLast(t *testing.T) {
	idx := ArgsortAscending([]float64{math.NaN(), 1, math.NaN(), 0})
	if idx[0] != 3 || idx[1] != 1 {
		t.Fatalf("finite values should sort first: %v", idx)
	}
	// Both NaN positions must be at the end.
	last := map[int]bool{idx[2]: true, idx[3]: true}
	if !last[0] || !last[2] {
		t.Fatalf("NaN indexes should be last: %v", idx)
	}
}

func TestArgsortStable(t *testing.T) {
	idx := ArgsortAscending([]float64{1, 1, 1})
	if idx[0] != 0 || idx[1] != 1 || idx[2] != 2 {
		t.Fatalf("ties must preserve input order: %v", idx)
	}
}

func TestSmallestK(t *testing.T) {
	idx := SmallestKInto(make([]int, 4), []float64{5, 1, 4, 2}, 2)
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 3 {
		t.Fatalf("got %v", idx)
	}
}

func TestSmallestKOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SmallestKInto(make([]int, 1), []float64{1}, 2)
}

func TestMedian(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"odd", []float64{3, 1, 2}, 2},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"single", []float64{7}, 7},
		{"with-nan", []float64{math.NaN(), 1, 3}, 2},
		{"negatives", []float64{-5, -1, -3}, -3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := MedianInPlace(tc.xs); got != tc.want {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestMedianAllNaN(t *testing.T) {
	if got := MedianInPlace([]float64{math.NaN(), math.NaN()}); !math.IsNaN(got) {
		t.Fatalf("got %v, want NaN", got)
	}
}

func TestClosestToPivot(t *testing.T) {
	idx := ClosestToPivotInto(make([]int, 4), make([]float64, 4), []float64{0, 9, 5, 4}, 4.4, 2)
	got := map[int]bool{idx[0]: true, idx[1]: true}
	if !got[3] || !got[2] {
		t.Fatalf("want indexes {2,3}, got %v", idx)
	}
}

func TestClosestToPivotNaNLast(t *testing.T) {
	idx := ClosestToPivotInto(make([]int, 3), make([]float64, 3), []float64{math.NaN(), 1, 100}, 1, 2)
	for _, i := range idx {
		if i == 0 {
			t.Fatalf("NaN entry selected among closest: %v", idx)
		}
	}
}

func TestCoordinateMedian(t *testing.T) {
	got := columnPass([]Vector{{1, 10}, {2, 30}, {3, 20}}, 0, MedianKernel)
	if got[0] != 2 || got[1] != 20 {
		t.Fatalf("got %v", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	// With b=1, trim {0} and {100}, average {1,2,3}.
	got := columnPass([]Vector{{0}, {1}, {2}, {3}, {100}}, 1, TrimmedMeanKernel)
	if got[0] != 2 {
		t.Fatalf("got %v, want 2", got[0])
	}
}

// Property: the median lies between min and max of the finite values.
func TestQuickMedianBounded(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		finite := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				finite = append(finite, x)
			}
		}
		if len(finite) == 0 {
			return true
		}
		m := MedianInPlace(finite)
		lo, hi := finite[0], finite[0]
		for _, x := range finite {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: SmallestKInto returns exactly the k values that a full sort would.
func TestQuickSmallestKAgreesWithSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		n := rng.Intn(20) + 1
		k := rng.Intn(n + 1)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(10))
		}
		idx := SmallestKInto(make([]int, n), xs, k)
		picked := make([]float64, k)
		for i, j := range idx {
			picked[i] = xs[j]
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		sort.Float64s(picked)
		for i := 0; i < k; i++ {
			if picked[i] != sorted[i] {
				t.Fatalf("SmallestKInto mismatch at %d: %v vs %v", i, picked, sorted[:k])
			}
		}
	}
}

// Property: the trimmed mean is bounded by the untrimmed min/max.
func TestQuickTrimmedMeanBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 100; iter++ {
		n := rng.Intn(8) + 3
		b := rng.Intn((n - 1) / 2)
		vs := make([]Vector, n)
		for i := range vs {
			vs[i] = Vector{rng.NormFloat64() * 10}
		}
		got := columnPass(vs, b, TrimmedMeanKernel)[0]
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vs {
			lo = math.Min(lo, v[0])
			hi = math.Max(hi, v[0])
		}
		if got < lo || got > hi {
			t.Fatalf("trimmed mean %v outside [%v,%v]", got, lo, hi)
		}
	}
}
