package tensor

import (
	"math"
	"sort"
)

// ArgsortAscending returns the indexes of xs ordered by ascending value.
// NaN values sort last (they compare as "greater than everything"), so a
// Byzantine score of NaN can never win a smallest-score selection.
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

// SmallestK returns the indexes of the k smallest values in xs (NaN last,
// ties by ascending index — the ArgsortAscending order). It panics if k is
// out of range. Hot paths with caller-provided scratch should use
// SmallestKInto; this convenience form allocates the index slice.
func SmallestK(xs []float64, k int) []int {
	if k < 0 || k > len(xs) {
		panic("tensor: SmallestK k out of range")
	}
	return SmallestKInto(make([]int, len(xs)), xs, k)
}

// ArgMin returns the index of the smallest value in xs (NaN treated as +Inf).
// It panics on an empty slice.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		panic("tensor: ArgMin of empty slice")
	}
	best := 0
	bestV := math.Inf(1)
	for i, x := range xs {
		if !math.IsNaN(x) && x < bestV {
			best, bestV = i, x
		}
	}
	return best
}

// Median returns the median of xs, averaging the two middle values for even
// lengths. NaN entries are ignored; if every entry is NaN the result is NaN.
// It panics on an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("tensor: Median of empty slice")
	}
	scratch := make([]float64, len(xs))
	copy(scratch, xs)
	return MedianInPlace(scratch)
}

// midpoint averages a and b without overflowing near ±MaxFloat64.
func midpoint(a, b float64) float64 { return a/2 + b/2 }

// MedianInPlace is Median without the defensive copy: it partially reorders
// xs (a deterministic selection, not a full sort). Use it on scratch buffers
// in hot loops — it is the median kernel behind the coordinate-wise rules.
func MedianInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		panic("tensor: MedianInPlace of empty slice")
	}
	// NaNs are swapped out once so the selection runs NaN-free with plain
	// < compares; the clean median sits at rank m/2 (and m/2−1 for even m)
	// of the remaining values.
	nn := moveNaNsFront(xs)
	clean := xs[nn:]
	if len(clean) == 0 {
		return math.NaN()
	}
	return medianCleanSelect(clean)
}

// medianCleanSelect computes the median of NaN-free xs by deterministic
// selection, partially reordering xs. A zero median carries the sign of the
// value ranked m/2 when -0 sorts before +0: what the column engine's sorting
// network yields, and a function of the values alone, not of their order.
func medianCleanSelect(clean []float64) float64 {
	m := len(clean)
	pos := m / 2
	partialSelectNoNaN(clean, pos+1)
	prefix := clean[:pos+1]
	var med float64
	if m%2 == 1 {
		med = prefix[0]
		for _, x := range prefix[1:] {
			if med < x {
				med = x
			}
		}
	} else {
		// Even m: the two largest values of the prefix are the two middles
		// (m ≥ 2 guarantees the prefix holds at least two values, so the
		// -Inf seeds can only survive when the middles really are -Inf).
		hi1, hi2 := math.Inf(-1), math.Inf(-1) // hi1 ≥ hi2
		for _, x := range prefix {
			if hi1 < x {
				hi2 = hi1
				hi1 = x
			} else if hi2 < x {
				hi2 = x
			}
		}
		med = midpoint(hi2, hi1)
	}
	if med == 0 {
		below := 0 // values that sort before +0: the negatives and -0
		for _, x := range clean {
			if math.Signbit(x) {
				below++
			}
		}
		if pos < below {
			return math.Copysign(0, -1)
		}
		return 0
	}
	return med
}

// ClosestToPivot returns the indexes of the k values in xs closest to pivot
// by absolute difference. Non-finite distances rank last. It panics if k is
// out of range. Hot paths should use ClosestToPivotInto with caller scratch.
func ClosestToPivot(xs []float64, pivot float64, k int) []int {
	if k < 0 || k > len(xs) {
		panic("tensor: ClosestToPivot k out of range")
	}
	return ClosestToPivotInto(make([]int, len(xs)), make([]float64, len(xs)), xs, pivot, k)
}

// CoordinateMedian returns the coordinate-wise median of vs, the Median GAR
// kernel (Xie et al. 2018). The pass is tiled and parallelised by the column
// engine. It panics if vs is empty or dimensions mismatch.
func CoordinateMedian(vs []Vector) Vector {
	if len(vs) == 0 {
		panic("tensor: CoordinateMedian of empty vector set")
	}
	d := len(vs[0])
	for _, v := range vs {
		if len(v) != d {
			panic("tensor: CoordinateMedian dimension mismatch")
		}
	}
	out := NewVector(d)
	var e ColumnEngine
	e.Run(out, vs, 0, MedianKernel, true)
	return out
}

// TrimmedMean returns the coordinate-wise mean of vs after discarding the b
// largest and b smallest values in each coordinate (Yin et al. 2018). The
// pass is tiled and parallelised by the column engine. It panics if
// 2b >= len(vs).
func TrimmedMean(vs []Vector, b int) Vector {
	if len(vs) == 0 {
		panic("tensor: TrimmedMean of empty vector set")
	}
	if 2*b >= len(vs) {
		panic("tensor: TrimmedMean requires 2b < n")
	}
	out := NewVector(len(vs[0]))
	var e ColumnEngine
	e.Run(out, vs, b, TrimmedMeanKernel, true)
	return out
}
