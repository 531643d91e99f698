package gar

import (
	"math"
	"runtime"

	"aggregathor/internal/tensor"
)

// This file implements the cache-blocked pairwise distance engine, the
// O(n²d) heart of MULTI-KRUM and BULYAN (§4.2 of the paper). Streaming each
// full gradient once per pair re-reads a 14MB Table-1 vector from DRAM n−1
// times; the engine instead partitions the d coordinates into L2-sized
// blocks and accumulates partial squared distances for the whole upper
// triangle one block at a time, so each vector block is read once per sweep
// and stays cache-resident across its n−1 pair visits.
//
// The kernel under the sweep takes one block against four (blockDistance4)
// and keeps, per pair, one accumulator for the even coordinates and one for
// the odd. Those two are the two lanes of a 128-bit register, which is what
// lets amd64 run the kernel as SSE2 assembly (dist_amd64.s) without moving a
// bit: the Go function stays compiled everywhere, as the kernel of every
// other GOARCH and as the oracle the assembly is fuzzed against.
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

// blockDistance4 accumulates the squared distances from block a to four
// blocks at once, sharing each a-load across the four pairs. A pair keeps two
// accumulators, s_0 over the even coordinates and s_1 over the odd ones (an
// odd last coordinate goes to s_0), and its distance is s_0 + s_1: a pure
// function of its two blocks alone, so permutation-equivariant and
// bit-identical for any GOMAXPROCS, tiling position, or run.
//
// That pair of accumulators is the two lanes of one 128-bit register, and a
// packed subtract, multiply and add are per lane the scalar operations below
// in the order below: dist_amd64.s is this function in SSE2, exact to the
// bit, with four independent add chains an iteration to hide the add's
// latency. This one is compiled on every GOARCH — the kernel where the
// assembly does not build, and the oracle FuzzBlockDistance holds it to
// where it does.
func blockDistance4(a, b0, b1, b2, b3 []float64) (r0, r1, r2, r3 float64) {
	n := len(a)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n] // bounds-check elimination for the paired loads
	var s00, s01, s10, s11, s20, s21, s30, s31 float64
	i := 0
	for ; i+2 <= n; i += 2 {
		x, y := a[i], a[i+1]
		d, e := x-b0[i], y-b0[i+1]
		s00 += d * d
		s01 += e * e
		d, e = x-b1[i], y-b1[i+1]
		s10 += d * d
		s11 += e * e
		d, e = x-b2[i], y-b2[i+1]
		s20 += d * d
		s21 += e * e
		d, e = x-b3[i], y-b3[i+1]
		s30 += d * d
		s31 += e * e
	}
	if i < n {
		x := a[i]
		d := x - b0[i]
		s00 += d * d
		d = x - b1[i]
		s10 += d * d
		d = x - b2[i]
		s20 += d * d
		d = x - b3[i]
		s30 += d * d
	}
	return s00 + s01, s10 + s11, s20 + s21, s30 + s31
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
		// Four pairs a call. A row's last call, short of four, repeats the
		// row's last block in the spare slots, so every pair sees the
		// identical accumulation structure regardless of its sweep position.
		for j := i + 1; j < n; j += 4 {
			var bs [4][]float64
			for k := range bs {
				bs[k] = grads[min(j+k, n-1)][lo:hi]
			}
			var r [4]float64
			r[0], r[1], r[2], r[3] = blockDistance(bi, bs[0], bs[1], bs[2], bs[3])
			p += copy(out[p:p+min(4, n-j)], r[:])
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
		clear(dist[i])
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
