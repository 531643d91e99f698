package gar

import (
	"math"
	"sort"

	"aggregathor/internal/tensor"
)

// Bulyan implements the BULYAN rule (El Mhamdi et al. 2018) as packaged by
// the paper: θ = n−2f iterations of the underlying MULTI-KRUM selection each
// extract one gradient, then each output coordinate is the average of the
// β = θ−2f values closest to the coordinate-wise median of the extracted set.
//
// Requirements (Theorem 2): n ≥ 4f+3 for strong Byzantine resilience.
//
// The implementation follows the paper's optimisation — "the next iterations
// only update the scores" — done properly: the O(n²d) pairwise distance
// matrix is computed once by the cache-blocked engine, each gradient keeps
// its distances-to-others as a sorted row, and when an iteration extracts a
// gradient the remaining rows just delete one value (binary search + shift)
// instead of being rebuilt and re-sorted. Scores stay bit-identical to the
// re-sorting implementation because each is the ascending sum of the same
// shrinking multiset. The coordinate-wise median/average pass runs on the
// shared blocked column engine.
type Bulyan struct {
	// NumByzantine is f, the number of Byzantine workers tolerated.
	NumByzantine int
}

// NewBulyan returns a BULYAN rule tolerating f Byzantine workers, using
// MULTI-KRUM as the underlying selection rule.
func NewBulyan(f int) *Bulyan { return &Bulyan{NumByzantine: f} }

// Name implements GAR.
func (b *Bulyan) Name() string { return "bulyan" }

// F implements ByzantineInfo.
func (b *Bulyan) F() int { return b.NumByzantine }

// MinWorkers implements ByzantineInfo: BULYAN requires n ≥ 4f+3.
func (b *Bulyan) MinWorkers() int { return 4*b.NumByzantine + 3 }

// Theta returns the number of selection iterations for n workers: n−2f.
func (b *Bulyan) Theta(n int) int { return n - 2*b.NumByzantine }

// Beta returns the per-coordinate averaging width for n workers: θ−2f.
func (b *Bulyan) Beta(n int) int { return b.Theta(n) - 2*b.NumByzantine }

// Aggregate implements GAR.
func (b *Bulyan) Aggregate(grads []tensor.Vector) (tensor.Vector, error) {
	return aggregateFresh(b, grads)
}

// AggregateInto implements WorkspaceGAR.
func (b *Bulyan) AggregateInto(ws *Workspace, grads []tensor.Vector) (tensor.Vector, error) {
	sel, err := b.selectInto(ws, grads)
	if err != nil {
		return nil, err
	}
	picked := ws.ensurePicked(len(grads))
	for _, idx := range sel {
		//aggrevet:alloc appends into ensurePicked capacity; 0 steady-state allocs pinned by TestWorkspaceZeroSteadyStateAllocs
		picked = append(picked, grads[idx])
	}
	return coordinateAggregateInto(ws, picked, b.Beta(len(grads))), nil
}

// Select runs the θ = n−2f Multi-Krum extraction iterations and returns the
// indexes of the extracted gradients, in extraction order.
func (b *Bulyan) Select(grads []tensor.Vector) ([]int, error) {
	var ws Workspace
	return b.selectInto(&ws, grads)
}

// selectInto is Select on workspace buffers; the returned slice aliases ws.
func (b *Bulyan) selectInto(ws *Workspace, grads []tensor.Vector) ([]int, error) {
	if err := checkUniform(grads); err != nil {
		return nil, err
	}
	n := len(grads)
	f := b.NumByzantine
	if err := checkTolerance("bulyan", "f", f, b.MinWorkers(), n); err != nil {
		return nil, err
	}
	theta := b.Theta(n)

	// Distance matrix computed once; each gradient's distances to the
	// others are kept as a sorted row so iterations only read prefixes and
	// delete single values.
	dist := BlockedPairwiseSquaredDistances(grads, ws)
	rows, active, selected := ws.ensureBulyan(n)
	for i := 0; i < n; i++ {
		r := rows[i][:0]
		for j := 0; j < n; j++ {
			if j != i {
				r = append(r, dist[i][j])
			}
		}
		tensor.SortFloats(r)
		rows[i] = r
	}
	for i := range active {
		active[i] = i
	}
	for len(selected) < theta {
		na := len(active)
		k := na - f - 2
		if k < 1 {
			// Fewer than f+3 candidates remain; Krum scoring is no
			// longer defined, so fall back to closest-to-centroid
			// ordering over cached distances (sum of all distances).
			k = na - 1
		}
		bestIdx, bestScore := -1, math.Inf(1)
		for ai, gi := range active {
			r := rows[gi]
			hi := k
			if hi > len(r) {
				hi = len(r)
			}
			var s float64
			for _, d := range r[:hi] {
				s += d
			}
			if math.IsNaN(s) {
				s = math.Inf(1)
			}
			// First candidate always seeds the selection so that an
			// all-+Inf field (every candidate poisoned) still breaks
			// ties lexicographically, exactly as a fresh Krum over the
			// remaining gradients would.
			if bestIdx < 0 || s < bestScore ||
				(s == bestScore && lexLess(grads[gi], grads[active[bestIdx]])) {
				bestIdx, bestScore = ai, s
			}
		}
		gBest := active[bestIdx]
		selected = append(selected, gBest)
		active = append(active[:bestIdx], active[bestIdx+1:]...)
		// The extracted gradient leaves the active set: delete its
		// distance from every remaining sorted row. SquaredDistance
		// never yields NaN (it saturates to +Inf), so binary search over
		// the sorted row always finds the exact value.
		for _, gi := range active {
			r := rows[gi]
			v := dist[gi][gBest]
			pos := sort.SearchFloat64s(r, v)
			copy(r[pos:], r[pos+1:])
			rows[gi] = r[:len(r)-1]
		}
	}
	return selected, nil
}

// lexLess orders vectors lexicographically, treating NaN as larger than any
// number. Score ties in the selection loops are broken with this ordering so
// that the extracted set does not depend on the order gradients arrived from
// the network — mutually-nearest pairs produce exactly tied Krum scores in
// the final Bulyan iteration (where the neighbour count reaches f−1).
func lexLess(a, b tensor.Vector) bool {
	for i := range a {
		av, bv := a[i], b[i]
		switch {
		case av == bv:
			continue
		case math.IsNaN(av):
			return false
		case math.IsNaN(bv):
			return true
		default:
			return av < bv
		}
	}
	return false
}

// coordinateAggregateInto performs the second BULYAN phase: for each
// coordinate, take the median of the selected vectors and average the beta
// values closest to it — on the shared blocked column engine, tiled and
// parallel over coordinate ranges.
func coordinateAggregateInto(ws *Workspace, picked []tensor.Vector, beta int) tensor.Vector {
	if beta < 1 {
		beta = 1
	}
	if beta > len(picked) {
		beta = len(picked)
	}
	out := ws.ensureOut(picked[0].Dim())
	ws.cols.Run(out, picked, beta, tensor.MeanAroundMedianKernel)
	return out
}
