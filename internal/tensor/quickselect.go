package tensor

import (
	"math"
	"slices"
)

// This file implements the deterministic selection kernels that replace the
// full sorts in the aggregation hot path. The GAR column kernels (median,
// trimmed mean, mean-around-median) and the Krum/Bulyan scoring loops only
// ever need a handful of order statistics out of each n-value column or
// score row, so an O(n) selection beats an O(n log n) sort by a wide margin
// and needs no per-call closure or index allocations.
//
// There are two kernels, a value quickselect and an index quickselect, and
// both take NaN-free input: distances and scores saturate NaN to +Inf before
// anything ranks them, and the column kernels move a column's NaNs aside
// first (moveNaNsFront). The exported entry points that promise an order
// over NaN (SelectSmallestFloat: NaN first, as sort.Float64s; SmallestKInto:
// NaN last, ties by ascending index) partition the NaNs out in one scan and
// run the same kernels on the rest.
//
// Determinism: pivots are the median of three fixed positions, so the
// partition sequence — and therefore the exact output permutation — is a
// pure function of the input. No randomness, no scheduler dependence.

// smallSelect is the sub-range size below which selection falls back to a
// direct insertion sort: partitioning below this size costs more than the
// insertion pass it saves. Columns at the paper's n≈19 scale are instead
// handled branchlessly by the sorting network (sortnet.go) — data-dependent
// branches on random data mispredict once per element, which is what makes
// comparison sorts slow at tiny n, not the op count.
const smallSelect = 24

// insertionSortNoNaN sorts NaN-free xs ascending.
func insertionSortNoNaN(xs []float64) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && x < xs[j] {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

// moveNaNsFront swap-partitions the NaN entries of xs to the front and
// returns their count. Every kernel that needs sort.Float64s's NaN-first
// rank arithmetic calls this once and then runs the NaN-free selection on
// the clean suffix; the multiset of clean values (hence every selected
// order statistic) is unchanged.
func moveNaNsFront(xs []float64) int {
	nn := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nn] = xs[nn], xs[i]
			nn++
		}
	}
	return nn
}

// partialSelectNoNaN rearranges NaN-free xs so that xs[:k] holds the k
// smallest values (unordered within the prefix) and xs[k:] the rest. It is
// an in-place deterministic quickselect with a three-way partition, so
// duplicate-heavy and +Inf-saturated inputs (Byzantine distance rows) keep
// linear behaviour. k outside (0, len(xs)) leaves xs as it is.
func partialSelectNoNaN(xs []float64, k int) {
	if k <= 0 || k >= len(xs) {
		return
	}
	lo, hi := 0, len(xs)
	for {
		if hi-lo <= smallSelect {
			insertionSortNoNaN(xs[lo:hi])
			return
		}
		a, b, c := xs[lo], xs[(lo+hi)/2], xs[hi-1]
		if b < a {
			a, b = b, a
		}
		if c < b {
			b = c
			if b < a {
				b = a
			}
		}
		// Three-way partition of xs[lo:hi] around the pivot value p:
		// [lo,lt) < p, [lt,gt) == p, [gt,hi) > p.
		p := b
		lt, i, gt := lo, lo, hi
		for i < gt {
			x := xs[i]
			switch {
			case x < p:
				xs[i], xs[lt] = xs[lt], xs[i]
				lt++
				i++
			case p < x:
				gt--
				xs[i], xs[gt] = xs[gt], xs[i]
			default:
				i++
			}
		}
		switch {
		case k <= lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return // the boundary falls inside the equal-to-pivot run
		}
	}
}

// SelectSmallestFloat rearranges xs so that xs[:k] holds the k smallest
// values sorted ascending in the sort.Float64s order (NaN before every other
// value). The suffix order is unspecified; k is clipped to [0, len(xs)].
func SelectSmallestFloat(xs []float64, k int) {
	nn := moveNaNsFront(xs)
	clean := xs[nn:]
	k = min(k-nn, len(clean))
	if k <= 0 {
		return
	}
	partialSelectNoNaN(clean, k)
	insertionSortNoNaN(clean[:k])
}

// SortFloats sorts xs ascending in the sort.Float64s order (NaN before every
// other value) without allocating.
func SortFloats(xs []float64) { slices.Sort(xs) }

// idxLessNoNaN orders indexes into a NaN-free value slice: ascending value,
// ties by ascending index. The tie-break makes it a strict total order.
func idxLessNoNaN(xs []float64, a, b int) bool {
	va, vb := xs[a], xs[b]
	if va != vb {
		return va < vb
	}
	return a < b
}

// insertionSortIdxNoNaN sorts idx by idxLessNoNaN.
func insertionSortIdxNoNaN(idx []int, xs []float64) {
	for i := 1; i < len(idx); i++ {
		x := idx[i]
		j := i - 1
		for j >= 0 && idxLessNoNaN(xs, x, idx[j]) {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = x
	}
}

// partialSelectIdxNoNaN rearranges idx, indexes of NaN-free values of xs, so
// that idx[:k] holds the k smallest in the idxLessNoNaN order.
func partialSelectIdxNoNaN(idx []int, xs []float64, k int) {
	if k <= 0 || k >= len(idx) {
		return
	}
	lo, hi := 0, len(idx)
	for {
		if hi-lo <= smallSelect {
			insertionSortIdxNoNaN(idx[lo:hi], xs)
			return
		}
		a, b, c := idx[lo], idx[(lo+hi)/2], idx[hi-1]
		if idxLessNoNaN(xs, b, a) {
			a, b = b, a
		}
		if idxLessNoNaN(xs, c, b) {
			b = c
			if idxLessNoNaN(xs, b, a) {
				b = a
			}
		}
		p := b
		lt, i, gt := lo, lo, hi
		for i < gt {
			x := idx[i]
			switch {
			case idxLessNoNaN(xs, x, p):
				idx[i], idx[lt] = idx[lt], idx[i]
				lt++
				i++
			case idxLessNoNaN(xs, p, x):
				gt--
				idx[i], idx[gt] = idx[gt], idx[i]
			default:
				i++ // only the pivot index itself compares equal
			}
		}
		switch {
		case k <= lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// SmallestKInto writes the indexes of the k smallest values of xs into dst
// and returns dst[:k], ordered by ascending value, NaN last, ties by
// ascending index. dst must have capacity for len(xs) entries; no allocation
// is performed.
func SmallestKInto(dst []int, xs []float64, k int) []int {
	if k < 0 || k > len(xs) {
		panic("tensor: SmallestKInto k out of range")
	}
	// The indexes of the NaN-free values, ascending, then those of the
	// NaNs, ascending: the NaNs already sit where the order wants them.
	dst = dst[:len(xs)]
	clean := 0
	for i, x := range xs {
		if x == x {
			dst[clean] = i
			clean++
		}
	}
	if clean < len(xs) {
		nan := clean
		for i, x := range xs {
			if x != x {
				dst[nan] = i
				nan++
			}
		}
	}
	kc := min(k, clean)
	partialSelectIdxNoNaN(dst[:clean], xs, kc)
	insertionSortIdxNoNaN(dst[:kc], xs)
	return dst[:k]
}

// ClosestToPivotInto writes the indexes of the k values of xs closest to
// pivot by absolute difference into dst and returns dst[:k], nearest first,
// ties by ascending index; a NaN or infinite difference ranks last. The
// |x−pivot| distances go to dscratch. Both scratch slices must have capacity
// for len(xs) entries; no allocation is performed.
func ClosestToPivotInto(dst []int, dscratch []float64, xs []float64, pivot float64, k int) []int {
	if k < 0 || k > len(xs) {
		panic("tensor: ClosestToPivotInto k out of range")
	}
	dscratch = dscratch[:len(xs)]
	for i, x := range xs {
		d := math.Abs(x - pivot)
		if math.IsNaN(d) {
			d = math.Inf(1)
		}
		dscratch[i] = d
	}
	return SmallestKInto(dst, dscratch, k)
}
