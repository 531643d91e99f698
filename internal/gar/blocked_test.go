package gar

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"aggregathor/internal/tensor"
)

func randVectors(seed int64, n, d int, pBad float64) []tensor.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]tensor.Vector, n)
	for i := range out {
		v := tensor.NewVector(d)
		for j := range v {
			if pBad > 0 && rng.Float64() < pBad {
				switch rng.Intn(3) {
				case 0:
					v[j] = math.NaN()
				case 1:
					v[j] = math.Inf(1)
				default:
					v[j] = math.Inf(-1)
				}
			} else {
				v[j] = rng.NormFloat64()
			}
		}
		out[i] = v
	}
	return out
}

// TestBlockedDistancesMatchReference: the blocked engine must agree with the
// row-streaming reference within 1e-12 relative tolerance on finite values
// (the per-pair sums associate per block, so the last ulps may differ) and
// exactly on non-finite saturation.
func TestBlockedDistancesMatchReference(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		n, d int
		pBad float64
	}{
		{1, 7, 500, 0},
		{2, 19, 5000, 0},
		{3, 19, 3*distBlockCoords + 17, 0}, // multiple blocks + ragged tail
		{4, 12, 4096, 0.01},                // sparse poison
		{5, 9, 1000, 0.5},                  // dense poison
		{6, 5, 1, 0},                       // single coordinate
		{7, 3, 0, 0},                       // zero-dimensional
	} {
		grads := randVectors(tc.seed, tc.n, tc.d, tc.pBad)
		want := pairwiseSquaredDistances(grads)
		var ws Workspace
		got := BlockedPairwiseSquaredDistances(grads, &ws)
		for i := 0; i < tc.n; i++ {
			for j := 0; j < tc.n; j++ {
				w, g := want[i][j], got[i][j]
				if math.IsInf(w, 1) || math.IsInf(g, 1) {
					if w != g {
						t.Fatalf("seed %d: saturation mismatch at (%d,%d): blocked %v, reference %v",
							tc.seed, i, j, g, w)
					}
					continue
				}
				if math.IsNaN(w) || math.IsNaN(g) {
					t.Fatalf("seed %d: NaN leaked at (%d,%d): blocked %v, reference %v", tc.seed, i, j, g, w)
				}
				diff := math.Abs(w - g)
				if diff > 1e-12*math.Max(math.Abs(w), 1) {
					t.Fatalf("seed %d: (%d,%d): blocked %v vs reference %v (diff %g)", tc.seed, i, j, g, w, diff)
				}
			}
		}
	}
}

// TestBlockedDistancesDeterministic: two runs over the same input must agree
// bit-for-bit (the sequential vs parallel schedules are
// TestBlockedDistancesGOMAXPROCSParity's).
func TestBlockedDistancesDeterministic(t *testing.T) {
	grads := randVectors(8, 19, 2*distParallelMin+31, 0.001)
	var ws1, ws2 Workspace
	a := BlockedPairwiseSquaredDistances(grads, &ws1)
	b := BlockedPairwiseSquaredDistances(grads, &ws2)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] && !(math.IsNaN(a[i][j]) && math.IsNaN(b[i][j])) {
				t.Fatalf("rerun diverges at (%d,%d)", i, j)
			}
		}
	}
}

// TestBlockedDistancesGOMAXPROCSParity pins the tentpole determinism claim:
// kernel outputs are independent of the scheduler width.
func TestBlockedDistancesGOMAXPROCSParity(t *testing.T) {
	grads := randVectors(9, 19, 2*distParallelMin+7, 0.001)
	run := func(procs int) [][]float64 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		var ws Workspace
		dist := BlockedPairwiseSquaredDistances(grads, &ws)
		out := make([][]float64, len(dist))
		for i := range dist {
			out[i] = append([]float64(nil), dist[i]...)
		}
		return out
	}
	a, b := run(1), run(8)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("GOMAXPROCS changes dist[%d][%d]: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestBlockedDistancesPermutationEquivariant: each distance must be a pure
// function of the two vectors — independent of where the pair falls in the
// sweep tiling.
func TestBlockedDistancesPermutationEquivariant(t *testing.T) {
	grads := randVectors(10, 11, 4096, 0)
	var ws Workspace
	base := BlockedPairwiseSquaredDistances(grads, &ws)
	baseCopy := make([][]float64, len(base))
	for i := range base {
		baseCopy[i] = append([]float64(nil), base[i]...)
	}
	perm := rand.New(rand.NewSource(11)).Perm(len(grads))
	permuted := make([]tensor.Vector, len(grads))
	for i, p := range perm {
		permuted[i] = grads[p]
	}
	var ws2 Workspace
	got := BlockedPairwiseSquaredDistances(permuted, &ws2)
	for i := range perm {
		for j := range perm {
			if got[i][j] != baseCopy[perm[i]][perm[j]] {
				t.Fatalf("permutation changes dist(%d,%d): %v vs %v",
					perm[i], perm[j], got[i][j], baseCopy[perm[i]][perm[j]])
			}
		}
	}
}

// TestKrumScoresSelectionMatchesReference: the selection-based scoring must
// be bit-identical to the sort-based krumScores reference over random and
// adversarial (NaN/±Inf-laced) distance matrices.
func TestKrumScoresSelectionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 2000; trial++ {
		n := 5 + rng.Intn(30)
		f := rng.Intn((n - 3) / 2)
		dist := make([][]float64, n)
		for i := range dist {
			dist[i] = make([]float64, n)
		}
		pBad := []float64{0, 0.1, 0.6}[trial%3]
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				var v float64
				if rng.Float64() < pBad {
					if rng.Intn(2) == 0 {
						v = math.Inf(1)
					} else {
						v = math.NaN() // only hand-built matrices carry NaN
					}
				} else {
					v = rng.Float64() * 10
				}
				dist[i][j] = v
				dist[j][i] = v
			}
		}
		want := krumScores(dist, n, f)
		var ws Workspace
		got := krumScoresInto(&ws, dist, n, f)
		for i := range want {
			if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("trial %d (n=%d f=%d): score[%d] = %v, reference %v", trial, n, f, i, got[i], want[i])
			}
		}
	}
}
