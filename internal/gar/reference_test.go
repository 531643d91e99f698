package gar

import (
	"math"
	"sort"

	"aggregathor/internal/tensor"
)

// This file holds the reference implementations the kernel tests compare
// against — the straightforward forms the production kernels replaced. None
// of them is reachable from production code.

// pairwiseSquaredDistances is the row-streaming distance matrix: one
// tensor.SquaredDistance per pair, each gradient re-read once per pair, with
// non-finite coordinates saturating to +Inf. BlockedPairwiseSquaredDistances
// must produce the same matrix within per-pair summation-order ulps, with
// identical saturation.
func pairwiseSquaredDistances(grads []tensor.Vector) [][]float64 {
	n := len(grads)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := tensor.SquaredDistance(grads[i], grads[j])
			dist[i][j] = d
			dist[j][i] = d
		}
	}
	return dist
}

// krumScores derives the per-gradient Krum score from a pairwise squared
// distance matrix by a full sort: the sum of the n−f−2 smallest distances to
// other gradients. Scores that would be NaN are saturated to +Inf.
func krumScores(dist [][]float64, n, f int) []float64 {
	k := n - f - 2
	scores := make([]float64, n)
	row := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, dist[i][j])
			}
		}
		sort.Float64s(row)
		var s float64
		// NaNs sort first in sort.Float64s; skip them (they only arise
		// if a caller hand-built the matrix — SquaredDistance never
		// returns NaN).
		lo := 0
		for lo < len(row) && math.IsNaN(row[lo]) {
			lo++
		}
		hi := lo + k
		if hi > len(row) {
			hi = len(row)
		}
		for _, d := range row[lo:hi] {
			s += d
		}
		if math.IsNaN(s) {
			s = math.Inf(1)
		}
		scores[i] = s
	}
	return scores
}

// selectNaive is BULYAN's selection phase without the distance-matrix reuse:
// a fresh Krum (m=1) over the remaining vectors each iteration, recomputing
// all pairwise distances with the same blocked kernel as Bulyan.Select (so
// the two see identical per-pair values and stay selection-equivalent).
func selectNaive(grads []tensor.Vector, f int) []int {
	theta := len(grads) - 2*f
	var ws Workspace
	remaining := make([]int, len(grads))
	for i := range remaining {
		remaining[i] = i
	}
	selected := make([]int, 0, theta)
	for len(selected) < theta {
		sub := make([]tensor.Vector, len(remaining))
		for i, idx := range remaining {
			sub[i] = grads[idx]
		}
		dist := BlockedPairwiseSquaredDistances(sub, &ws)
		na := len(sub)
		k := na - f - 2
		if k < 1 {
			k = na - 1
		}
		scores := make([]float64, na)
		row := make([]float64, 0, na)
		for i := 0; i < na; i++ {
			row = row[:0]
			for j := 0; j < na; j++ {
				if j != i {
					row = append(row, dist[i][j])
				}
			}
			sort.Float64s(row)
			var s float64
			hi := k
			if hi > len(row) {
				hi = len(row)
			}
			for _, d := range row[:hi] {
				s += d
			}
			if math.IsNaN(s) {
				s = math.Inf(1)
			}
			scores[i] = s
		}
		best := 0
		for i := 1; i < na; i++ {
			if scores[i] < scores[best] ||
				(scores[i] == scores[best] && lexLess(sub[i], sub[best])) {
				best = i
			}
		}
		selected = append(selected, remaining[best])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return selected
}

// aggregateNaive is BULYAN over selectNaive: the reference selection followed
// by the production second phase.
func aggregateNaive(grads []tensor.Vector, f int) tensor.Vector {
	picked := make([]tensor.Vector, 0, len(grads))
	for _, idx := range selectNaive(grads, f) {
		picked = append(picked, grads[idx])
	}
	return coordinateAggregateInto(new(Workspace), picked, len(grads)-4*f)
}
