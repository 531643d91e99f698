// Package tensor provides the flat numeric substrate used throughout the
// AggregaThor reproduction: dense float64 vectors and matrices, distance
// kernels, NaN-aware reductions, and small selection utilities.
//
// Gradient aggregation rules (package gar) operate on flat vectors, so this
// package is deliberately biased toward contiguous []float64 operations with
// explicit handling of non-finite values (NaN, ±Inf): a distance involving a
// non-finite coordinate saturates to +Inf rather than poisoning downstream
// comparisons.
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector. The zero value is an empty vector.
type Vector []float64

// NewVector returns a zero-filled vector of dimension d.
func NewVector(d int) Vector { return make(Vector, d) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dim returns the dimension (length) of v.
func (v Vector) Dim() int { return len(v) }

// Fill sets every coordinate of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Zero sets every coordinate of v to 0.
func (v Vector) Zero() { v.Fill(0) }

// Add accumulates w into v coordinate-wise. It panics on dimension mismatch.
func (v Vector) Add(w Vector) {
	mustSameDim(v, w)
	for i := range v {
		v[i] += w[i]
	}
}

// Scale multiplies every coordinate of v by a.
func (v Vector) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Axpy computes v += a*w (the BLAS axpy kernel). It panics on dimension
// mismatch.
func (v Vector) Axpy(a float64, w Vector) {
	mustSameDim(v, w)
	w = w[:len(v)]
	for i := range v {
		v[i] += a * w[i]
	}
}

// SquaredNorm returns the squared Euclidean norm of v.
func (v Vector) SquaredNorm() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// SquaredDistance returns the squared Euclidean distance between v and w.
// If any coordinate of either vector is non-finite the result is +Inf: a
// Byzantine gradient carrying NaN or ±Inf must rank as maximally distant, not
// contaminate comparisons with NaN.
func SquaredDistance(v, w Vector) float64 {
	mustSameDim(v, w)
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	if math.IsNaN(s) {
		return math.Inf(1)
	}
	return s
}

// Distance returns the Euclidean distance between v and w with the same
// non-finite saturation as SquaredDistance.
func Distance(v, w Vector) float64 { return math.Sqrt(SquaredDistance(v, w)) }

// IsFinite reports whether every coordinate of v is finite.
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Fingerprint hashes the exact bit pattern of v (64-bit FNV-1a over the
// little-endian coordinates): the equality test behind every exact-match
// vote — the replicated server's model vote, Draco's group vote. Every NaN
// hashes as the canonical quiet NaN, so a Byzantine voter cannot split
// otherwise identical values by varying NaN payload bits.
func (v Vector) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		bits := math.Float64bits(x)
		if math.IsNaN(x) {
			bits = math.Float64bits(math.NaN())
		}
		for shift := 0; shift < 64; shift += 8 {
			h = (h ^ bits>>shift&0xff) * 1099511628211
		}
	}
	return h
}

// Max returns the maximum coordinate of v, or -Inf for an empty vector.
func (v Vector) Max() float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// Mean returns the coordinate-wise mean of vs into a fresh vector.
// It panics if vs is empty or dimensions mismatch.
func Mean(vs []Vector) Vector {
	if len(vs) == 0 {
		panic("tensor: Mean of empty vector set")
	}
	out := NewVector(len(vs[0]))
	MeanInto(out, vs)
	return out
}

// MeanInto computes the coordinate-wise mean of vs into out, allocation
// free. It panics if vs is empty or dimensions mismatch. The sum runs left to
// right from zero, four inputs to a pass over out — the bits of one Add per
// input, a quarter of the passes.
func MeanInto(out Vector, vs []Vector) {
	if len(vs) == 0 {
		panic("tensor: MeanInto of empty vector set")
	}
	out.Zero()
	scale := 1 / float64(len(vs))
	for ; len(vs) >= 4; vs = vs[4:] {
		a, b, c, d := vs[0], vs[1], vs[2], vs[3]
		mustSameDim(out, a)
		mustSameDim(out, b)
		mustSameDim(out, c)
		mustSameDim(out, d)
		for j := range out {
			out[j] = (((out[j] + a[j]) + b[j]) + c[j]) + d[j]
		}
	}
	for _, v := range vs {
		out.Add(v)
	}
	out.Scale(scale)
}

func mustSameDim(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: dimension mismatch %d != %d", len(v), len(w)))
	}
}
