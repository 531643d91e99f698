package gar

import (
	"math"
	"runtime"

	"aggregathor/internal/tensor"
)

// This file implements the cache-blocked pairwise distance engine, the
// O(n²d) heart of MULTI-KRUM and BULYAN (§4.2 of the paper). The previous
// kernel streamed each full gradient n−1 times: at the Table-1 scale every
// 14MB vector was re-read from DRAM once per pair, so the pass was memory-
// bandwidth bound. The blocked engine partitions the d coordinates into
// L2-sized blocks and accumulates partial squared distances for the whole
// upper triangle one block at a time — each vector block is read once per
// sweep and stays cache-resident across its n−1 pair visits.
//
// Determinism: every block writes its partial sums into a fixed slot of the
// partials array, and the final per-pair reduction adds those slots in
// ascending block order. The result is therefore a pure function of the
// input, bit-identical across GOMAXPROCS settings and run-to-run — the
// property the campaign byte-reproducibility suites pin down.

const (
	// distBlockCoords is the block width: 2048 coordinates × 8 bytes =
	// 16KB per vector block, so a full n≈19 sweep touches ≈300KB — sized
	// to sit in L2 while the n(n−1)/2 pair visits replay it.
	distBlockCoords = 2048
	// distParallelMin is the dimension below which the sweep stays on the
	// calling goroutine.
	distParallelMin = 1 << 15
)

// blockDistance2 accumulates the squared distances from block a to two
// blocks at once. The sweep is load-throughput bound — a one-pair kernel
// issues two loads per coordinate-pair — so sharing each a-load across two
// pairs (six loads per four coordinate-pairs) is the main lever; wider
// lane counts measure slower on amd64 (register spills). Each pair keeps
// two independent accumulators (even/odd coordinates) combined in a fixed
// order, so every distance is a pure function of its two vector blocks
// alone: permutation-equivariant and bit-identical for any GOMAXPROCS,
// tiling position, or run.
func blockDistance2(a, b0, b1 []float64) (r0, r1 float64) {
	n := len(a)
	b0 = b0[:n] // bounds-check elimination for the paired loads
	b1 = b1[:n]
	var s00, s01, s10, s11 float64
	i := 0
	for ; i+2 <= n; i += 2 {
		x, y := a[i], a[i+1]
		d := x - b0[i]
		e := y - b0[i+1]
		s00 += d * d
		s01 += e * e
		d = x - b1[i]
		e = y - b1[i+1]
		s10 += d * d
		s11 += e * e
	}
	for ; i < n; i++ {
		x := a[i]
		d0 := x - b0[i]
		s00 += d0 * d0
		d1 := x - b1[i]
		s10 += d1 * d1
	}
	return s00 + s01, s10 + s11
}

// distSweep accumulates block b's partial squared distances for the whole
// upper triangle into its fixed partials slot.
func distSweep(partials []float64, grads []tensor.Vector, b, n, nPairs, d int) {
	lo := b * distBlockCoords
	hi := lo + distBlockCoords
	if hi > d {
		hi = d
	}
	out := partials[b*nPairs:]
	p := 0
	for i := 0; i < n; i++ {
		bi := grads[i][lo:hi]
		j := i + 1
		for ; j+2 <= n; j += 2 {
			out[p], out[p+1] = blockDistance2(bi, grads[j][lo:hi], grads[j+1][lo:hi])
			p += 2
		}
		// A tail pair replays the same 2-lane kernel with a duplicated
		// argument so every pair sees the identical accumulation
		// structure regardless of its sweep position.
		if j < n {
			bj := grads[j][lo:hi]
			out[p], _ = blockDistance2(bi, bj, bj)
			p++
		}
	}
}

// BlockedPairwiseSquaredDistances computes the symmetric n×n matrix of
// squared Euclidean distances — non-finite coordinates saturating each
// affected pair to +Inf — through the cache-blocked engine. The matrix
// aliases ws and is valid until the workspace's next distance computation.
// From distParallelMin coordinates up the blocks are spread across
// GOMAXPROCS goroutines; the output is bit-identical either way (and
// run-to-run).
//
// The per-pair sums associate per block rather than left-to-right, so
// values may differ from a streamed tensor.SquaredDistance per pair in the
// last ulps; the saturation semantics (NaN→+Inf, ±Inf propagation) are the
// same.
func BlockedPairwiseSquaredDistances(grads []tensor.Vector, ws *Workspace) [][]float64 {
	n := len(grads)
	dist := ws.ensureDist(n)
	for i := range dist {
		for j := range dist[i] {
			dist[i][j] = 0
		}
	}
	if n < 2 {
		return dist
	}
	d := grads[0].Dim()
	nPairs := n * (n - 1) / 2
	nBlocks := (d + distBlockCoords - 1) / distBlockCoords
	if nBlocks == 0 {
		return dist
	}
	partials := ws.ensurePartials(nBlocks * nPairs)

	workers := runtime.GOMAXPROCS(0)
	if workers > nBlocks {
		workers = nBlocks
	}
	if workers <= 1 || d < distParallelMin {
		// The sequential schedule is a plain loop (no closure) so the
		// steady-state workspace path stays allocation-free.
		for b := 0; b < nBlocks; b++ {
			distSweep(partials, grads, b, n, nPairs, d)
		}
	} else {
		tensor.ParallelFor(nBlocks, workers, func(_, b int) {
			distSweep(partials, grads, b, n, nPairs, d)
		})
	}

	// Reduce the block partials in ascending block order — a fixed
	// association independent of which goroutine computed which block.
	p := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s float64
			for b := 0; b < nBlocks; b++ {
				s += partials[b*nPairs+p]
			}
			if math.IsNaN(s) {
				s = math.Inf(1)
			}
			dist[i][j] = s
			dist[j][i] = s
			p++
		}
	}
	return dist
}

// krumScoresInto computes the Krum scores — per gradient, the sum of the
// n−f−2 smallest distances to the others, a NaN sum saturating to +Inf —
// from a distance matrix into the workspace, with a selection kernel instead
// of a full sort and zero allocations: per row, select the k smallest
// finite-ordered entries, sort only that prefix, and sum it ascending.
func krumScoresInto(ws *Workspace, dist [][]float64, n, f int) []float64 {
	k := n - f - 2
	scores, row := ws.ensureScores(n)
	for i := 0; i < n; i++ {
		r := row[:0]
		nn := 0
		for j := 0; j < n; j++ {
			if j != i {
				x := dist[i][j]
				if math.IsNaN(x) {
					nn++
				}
				r = append(r, x)
			}
		}
		// NaNs order first (as in sort.Float64s) and are skipped; the
		// summed window is the k smallest non-NaN entries, ascending.
		hi := nn + k
		if hi > len(r) {
			hi = len(r)
		}
		if hi < nn {
			hi = nn
		}
		tensor.SelectSmallestFloat(r, hi)
		var s float64
		for _, d := range r[nn:hi] {
			s += d
		}
		if math.IsNaN(s) {
			s = math.Inf(1)
		}
		scores[i] = s
	}
	return scores
}
