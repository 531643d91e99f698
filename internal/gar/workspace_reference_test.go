package gar

import (
	"math"
	"testing"

	"aggregathor/internal/tensor"
)

// This file pins the workspace kernels of GeoMedian and GenericBulyan to the
// allocating implementations they replaced: referenceGeoMedian and
// referenceGenericBulyan are verbatim copies of the pre-workspace Aggregate
// bodies, and the tests require the new paths to match them bit-for-bit over
// clean and poisoned inputs. If a kernel rewrite ever changes a single ULP,
// these tests say so before any campaign JSON does.

// referenceGeoMedian is the pre-workspace GeoMedian.Aggregate: fresh mean,
// fresh iterate buffer, Clone on every return.
func referenceGeoMedian(g *GeoMedian, grads []tensor.Vector) (tensor.Vector, error) {
	if err := checkUniform(grads); err != nil {
		return nil, err
	}
	if len(grads) < g.MinWorkers() {
		return nil, errTooFew
	}
	finite := make([]tensor.Vector, 0, len(grads))
	for _, v := range grads {
		if v.IsFinite() {
			finite = append(finite, v)
		}
	}
	if len(finite) == 0 {
		return tensor.NewVector(grads[0].Dim()), nil
	}
	y := tensor.Mean(finite)
	next := tensor.NewVector(y.Dim())
	for iter := 0; iter < geoMedianMaxIter; iter++ {
		next.Zero()
		var wsum float64
		for _, x := range finite {
			d := tensor.Distance(x, y)
			if d < 1e-12 {
				return x.Clone(), nil
			}
			w := 1 / d
			next.Axpy(w, x)
			wsum += w
		}
		next.Scale(1 / wsum)
		moved := tensor.Distance(next, y)
		y, next = next, y
		if moved < geoMedianTol {
			break
		}
	}
	return y.Clone(), nil
}

// referenceGenericBulyan is the pre-workspace GenericBulyan.Aggregate: fresh
// remaining/selected slices, inner rule driven through its allocating
// Aggregate, coordinate-median fallback via a fresh Median aggregation.
func referenceGenericBulyan(b *GenericBulyan, grads []tensor.Vector) (tensor.Vector, error) {
	if err := checkUniform(grads); err != nil {
		return nil, err
	}
	n := len(grads)
	f := b.NumByzantine
	if n < b.MinWorkers() {
		return nil, errTooFew
	}
	theta := n - 2*f
	remaining := make([]tensor.Vector, len(grads))
	copy(remaining, grads)
	selected := make([]tensor.Vector, 0, theta)
	for len(selected) < theta {
		proposal, err := Aggregate(b.Inner, remaining)
		if err != nil {
			proposal, _ = Aggregate(Median{}, remaining)
		}
		best, bestDist := -1, math.Inf(1)
		for i, v := range remaining {
			d := tensor.SquaredDistance(v, proposal)
			if d < bestDist || (d == bestDist && best >= 0 && lexLess(v, remaining[best])) {
				best, bestDist = i, d
			}
		}
		if best < 0 {
			best = 0
		}
		selected = append(selected, remaining[best])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return coordinateAggregateInto(new(Workspace), selected, theta-2*f), nil
}

// errTooFew is a sentinel for the reference paths: the tests only compare
// error presence with the real implementations, not messages.
var errTooFew = ErrTooFewWorkers

// TestGeoMedianMatchesReference: the workspace Weiszfeld kernel must be
// bit-identical to the retired allocating implementation, including the
// all-poisoned null update and the singular on-a-data-point early exit.
func TestGeoMedianMatchesReference(t *testing.T) {
	ws := NewWorkspace()
	for _, tc := range []struct {
		seed int64
		n, d int
		pBad float64
	}{
		{41, 11, 257, 0},
		{42, 11, 1024, 0.02},
		{43, 11, 100, 0.7},
		{44, 5, 4097, 0},
		{45, 7, 64, 0.99},
	} {
		g := NewGeoMedian(2)
		grads := randVectors(tc.seed, tc.n, tc.d, tc.pBad)
		want, errWant := referenceGeoMedian(g, grads)
		got, errGot := AggregateInto(ws, g, grads)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("seed %d: error mismatch: %v vs %v", tc.seed, errWant, errGot)
		}
		if errWant != nil {
			continue
		}
		if !vecEq(got, want) {
			t.Fatalf("seed %d: workspace geometric median diverges from reference", tc.seed)
		}
	}
	// Singularity path: the iterate lands exactly on a duplicated data
	// point, which the reference answers with that point.
	dup := tensor.Vector{1, 2, 3}
	grads := []tensor.Vector{dup.Clone(), dup.Clone(), dup.Clone(), dup.Clone(), dup.Clone()}
	g := NewGeoMedian(2)
	want, _ := referenceGeoMedian(g, grads)
	got, err := AggregateInto(ws, g, grads)
	if err != nil {
		t.Fatal(err)
	}
	if !vecEq(got, want) {
		t.Fatal("singular Weiszfeld case diverges from reference")
	}
}

// TestGenericBulyanMatchesReference: the workspace composite loop — nested
// inner workspace, reused candidate list, column-engine median fallback —
// must extract and aggregate bit-identically to the retired implementation,
// for both registered inner rules and for an inner whose minimum triggers
// the fallback during the shrink.
func TestGenericBulyanMatchesReference(t *testing.T) {
	ws := NewWorkspace()
	inners := []GAR{Median{}, NewGeoMedian(2), NewMultiKrum(2)}
	for _, inner := range inners {
		for _, tc := range []struct {
			seed int64
			n, d int
			pBad float64
		}{
			{51, 11, 257, 0},
			{52, 11, 1024, 0.02},
			{53, 11, 100, 0.7},
			{54, 15, 513, 0.01},
		} {
			b := NewGenericBulyan(inner, 2)
			grads := randVectors(tc.seed, tc.n, tc.d, tc.pBad)
			want, errWant := referenceGenericBulyan(b, grads)
			got, errGot := AggregateInto(ws, b, grads)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("%s seed %d: error mismatch: %v vs %v", b.Name(), tc.seed, errWant, errGot)
			}
			if errWant != nil {
				continue
			}
			if !vecEq(got, want) {
				t.Fatalf("%s seed %d: workspace generic bulyan diverges from reference", b.Name(), tc.seed)
			}
		}
	}
}
