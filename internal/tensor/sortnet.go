package tensor

// Branchless sorting networks for the tiny per-coordinate columns of the
// GAR kernels. At the paper's n≈19 worker count a comparison sort spends
// most of its time in branch mispredictions — random data mispredicts about
// once per element per pass — so the column engine instead replays a fixed
// Batcher odd-even merge network whose compare-exchange sequence depends
// only on n: each step is two loads, a min, a max and two stores, with no
// data-dependent control flow at all, and sortRows applies it to every
// column of a tile at once. The pair list is built once per n and cached by
// the column engine, so steady-state sorting performs no allocations and,
// being a fixed sequence, is trivially deterministic.

// maxSortNet is the largest column size served by a network: the
// O(n log²n) compare-exchange count overtakes partition-based selection
// beyond this.
const maxSortNet = 64

// SortNetPairs returns the compare-exchange pairs of Batcher's odd-even
// merge sorting network for n inputs (the arbitrary-n iterative form).
// Applying the pairs in order with compare-exchange sorts any n values.
func SortNetPairs(n int) [][2]int {
	var pairs [][2]int
	for p := 1; p < n; p *= 2 {
		for k := p; k >= 1; k /= 2 {
			for j := k % p; j+k < n; j += 2 * k {
				for i := 0; i < k && i+j+k < n; i++ {
					lo, hi := i+j, i+j+k
					if lo/(2*p) == hi/(2*p) {
						pairs = append(pairs, [2]int{lo, hi})
					}
				}
			}
		}
	}
	return pairs
}
