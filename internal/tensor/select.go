package tensor

import "math"

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
