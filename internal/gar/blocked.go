package gar

import (
	"cmp"
	"math"
	"runtime"
	"slices"

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
// The kernel under the sweep takes one block against eight (blockDistance8)
// and keeps, per pair, one accumulator for the even coordinates and one for
// the odd. Two pairs' accumulators are the four lanes of a 256-bit register,
// which is what lets an amd64 CPU with AVX2 run the kernel as assembly
// (dist_amd64.s) without moving a bit: the Go function stays compiled
// everywhere, as the kernel of every other CPU and as the oracle the
// assembly is fuzzed against. Which end of a pair is the kernel's a does not
// matter either — (x−y)² and (y−x)² are one float64, and a NaN saturates to
// +Inf in the reduction — so distPlan orients the pairs to fill the calls.
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

// blockDistance8 is the sweep's kernel shape in Go: block a against the
// eight blocks of b, blockDistance4 on each half. A packed subtract, multiply
// and add are per lane the scalar operations of blockDistance4 in its order,
// so dist_amd64.s, which keeps two pairs' [s_0, s_1] in one register, is
// this function in AVX2, exact to the bit. This one is compiled on every
// GOARCH — the kernel where the assembly does not run, and the oracle
// FuzzBlockDistance holds it to where it does.
func blockDistance8(a []float64, b [8][]float64) (r [8]float64) {
	r[0], r[1], r[2], r[3] = blockDistance4(a, b[0], b[1], b[2], b[3])
	r[4], r[5], r[6], r[7] = blockDistance4(a, b[4], b[5], b[6], b[7])
	return r
}

// distCall is one kernel call of the sweep: the block of vector anchor
// against the blocks of vectors partner[k], each distance going to partials
// slot pair[k] — −1 in a spare slot, which repeats a real partner and is
// dropped.
type distCall struct {
	anchor  int
	partner [8]int
	pair    [8]int
}

// distPlan orients the n(n−1)/2 pairs of the sweep and packs them eight to a
// call. Row order (anchor i, partners i+1..n−1) leaves a short call at the
// end of nearly every row: 30 calls, 240 slots for the 171 pairs of n = 19.
// Giving every vector a budget of whole calls, spread as evenly as the total
// allows, packs them into ⌈171/8⌉ = 22. A budget sequence is realisable iff
// every k vectors can hold the k(k−1)/2 pairs among them (Landau's condition
// for tournaments); packPairs realises it greedily, and the first total it
// realises is the sweep's plan. Budgets of n−1 slots each always succeed.
func distPlan(n int) []distCall {
	for calls := (n*(n-1)/2 + 7) / 8; ; calls++ {
		if plan := packPairs(n, calls); plan != nil {
			return plan
		}
	}
}

// packPairs spreads calls kernel calls over n vectors as budgets of eight
// slots each and hands every pair to one of its two ends: the vector with the
// least budget left takes as many of its open pairs as its budget holds,
// partners with the least budget first, and the rest of its partners each
// spend a slot of their own on their pair with it. It returns nil when a
// partner has no slot left.
func packPairs(n, calls int) []distCall {
	free := make([]int, n)
	for v := range free {
		free[v] = 8 * (calls / n)
		if v >= n-calls%n {
			free[v] += 8
		}
	}
	partners := make([][]int, n)
	open := make([]int, n)
	for v := range open {
		open[v] = v
	}
	for len(open) > 0 {
		slices.SortStableFunc(open, func(u, v int) int { return cmp.Compare(free[u], free[v]) })
		v, rest := open[0], open[1:]
		take := min(free[v], len(rest))
		partners[v] = append(partners[v], rest[:take]...)
		for _, u := range rest[take:] {
			if free[u] == 0 {
				return nil
			}
			free[u]--
			partners[u] = append(partners[u], v)
		}
		open = rest
	}
	var plan []distCall
	for v, ps := range partners {
		slices.Sort(ps)
		for len(ps) > 0 {
			c := distCall{anchor: v}
			for k := range c.partner {
				c.partner[k], c.pair[k] = ps[0], -1
				if k < len(ps) {
					c.partner[k], c.pair[k] = ps[k], pairIndex(n, min(v, ps[k]), max(v, ps[k]))
				}
			}
			plan = append(plan, c)
			ps = ps[min(8, len(ps)):]
		}
	}
	return plan
}

// pairIndex is the partials slot of pair i < j: its position in row order.
func pairIndex(n, i, j int) int { return i*n - i*(i+1)/2 + j - i - 1 }

// distSweep accumulates block b's partial squared distances for the whole
// upper triangle into its fixed partials slot, one plan call at a time.
func distSweep(partials []float64, grads []tensor.Vector, plan []distCall, b, nPairs, d int) {
	lo := b * distBlockCoords
	hi := min(lo+distBlockCoords, d)
	out := partials[b*nPairs : (b+1)*nPairs]
	for i := range plan {
		c := &plan[i]
		var bs [8][]float64
		for k, j := range c.partner {
			bs[k] = grads[j][lo:hi]
		}
		r := blockDistance(grads[c.anchor][lo:hi], bs)
		for k, p := range c.pair {
			if p >= 0 {
				out[p] = r[k]
			}
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
	plan := ws.ensureDistPlan(n)

	workers := runtime.GOMAXPROCS(0)
	if workers > nBlocks {
		workers = nBlocks
	}
	if workers <= 1 || d < distParallelMin {
		// The sequential schedule is a plain loop (no closure) so the
		// steady-state workspace path stays allocation-free.
		for b := 0; b < nBlocks; b++ {
			distSweep(partials, grads, plan, b, nPairs, d)
		}
	} else {
		tensor.ParallelFor(nBlocks, workers, func(_, b int) {
			distSweep(partials, grads, plan, b, nPairs, d)
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
