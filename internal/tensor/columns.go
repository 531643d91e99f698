package tensor

import (
	"math"
	"runtime"
)

// This file implements the blocked column-pass engine shared by every
// coordinate-wise aggregation rule (median, trimmed mean, NaN-mean,
// mean-around-median, Bulyan's second phase). Instead of walking all n
// vectors once per coordinate — n strided cache misses per output value —
// the engine fills a row-major tile of n vectors × colTileCoords coordinates
// with one sequential pass over each vector and sorts the whole tile at
// once: each compare-exchange of the n-input sorting network runs over two
// whole rows, so every column is sorted by the same branch-free loop and the
// order statistics are read back as rows. The tile holds sort keys, not
// floats (see sortKey): an integer min/max is a compare and two conditional
// moves where the float builtins cost three times that, and on an amd64 CPU
// with AVX2 it is one VPCMPGTQ and two VPBLENDVB over four keys at a time
// (sort_amd64.s; sortRowsGo is the same loop everywhere else). Tiles are
// independent, so the pass parallelises over fixed tile indexes with
// bit-identical output regardless of GOMAXPROCS.
//
// The tile-wide pass covers finite columns of at most maxSortNet rows. A
// column holding a NaN or ±Inf, a taller column, the NaN-mean (which ranks
// nothing) and a mean-around-median coordinate whose summation order hangs on
// the worker order (see meanAroundSorted) take the exact per-column selection
// kernels instead. Both routes compute the same function of a column's bit
// patterns, so which one ran never shows in the output.

const (
	// colTileCoords is the tile width: n≈19 rows × 128 coordinates × 8
	// bytes ≈ 19KB, sized to keep the sorted tile L1-resident.
	colTileCoords = 128
	// colParallelMin is the dimension below which the pass stays on the
	// calling goroutine: spawning workers costs more than the pass itself
	// and the sequential path is what the zero-allocation contract covers.
	colParallelMin = 1 << 14
)

// ColumnKernel names the per-coordinate reduction of a column pass. The rule
// parameter (trim width, keep count) travels beside it as Run's arg.
type ColumnKernel int

const (
	// MedianKernel is the coordinate-wise median: the Median GAR.
	MedianKernel ColumnKernel = iota
	// TrimmedMeanKernel drops the arg smallest and arg largest values (NaN
	// ordered first, as sort.Float64s does) and averages the rest in
	// ascending order: the TrimmedMean GAR.
	TrimmedMeanKernel
	// NaNMeanKernel averages the non-NaN values of the column (0 when every
	// value is NaN): the §3.3 selective-averaging GAR.
	NaNMeanKernel
	// MeanAroundMedianKernel averages the arg values closest to the column
	// median, skipping non-finite values (median fallback when none are
	// finite, 0 when the median itself is NaN): the MeanAroundMedian GAR
	// and Bulyan's second phase.
	MeanAroundMedianKernel
)

// sortsTile reports whether the kernel reads order statistics of n-value
// columns and arg is in the range its row reduction accepts; an out-of-range
// arg is left to the per-column kernel to reject as it always has.
func (k ColumnKernel) sortsTile(n, arg int) bool {
	switch k {
	case MedianKernel:
		return true
	case TrimmedMeanKernel:
		return arg >= 0 && 2*arg < n
	case MeanAroundMedianKernel:
		return arg >= 1 && arg <= n
	}
	return false
}

// sortKey maps the bits of a float64 to an int64 that orders as the float
// does with -0 before +0 — the order the min/max builtins give floats — and
// NaNs beyond the infinities at either end. It is its own inverse.
func sortKey(bits int64) int64 { return bits ^ (bits>>63)&math.MaxInt64 }

// keyFloat is the float64 behind a sort key.
func keyFloat(key int64) float64 { return math.Float64frombits(uint64(sortKey(key))) }

// colScratch is one worker's buffers: the row-major tile of sort keys, the
// tile's columns that hold a NaN or ±Inf (all false between tiles), and for
// the per-column kernels the gathered column col[i] = vs[i][j], a second
// copy of it and ClosestToPivotInto's distance and index scratch.
type colScratch struct {
	tile           []int64
	nonFinite      [colTileCoords]bool
	col, tmp, dist []float64
	idx            []int
}

// ColumnEngine owns the reusable tile and scratch buffers of a blocked
// column pass. The zero value is ready to use; buffers grow on demand and
// are retained across runs, so a warm engine performs no allocations.
// An engine must not be shared by concurrent Run calls.
type ColumnEngine struct {
	tiles   []int64
	floats  []float64
	idx     []int
	scratch []colScratch
	// nets caches the sorting network per column size: composite rules
	// (generic BULYAN) cycle n every call as their candidate set shrinks,
	// and rebuilding the network on each size change would break the
	// zero-allocation contract.
	nets [][][2]int
}

// ensure sizes the scratch for w workers over n-vector columns and returns
// the n-input sorting network, nil when n > maxSortNet.
func (e *ColumnEngine) ensure(w, n int) [][2]int {
	if cap(e.idx) < w*n {
		e.tiles = make([]int64, w*n*colTileCoords)
		e.floats = make([]float64, w*n*3)
		e.idx = make([]int, w*n)
	}
	if cap(e.scratch) < w {
		e.scratch = make([]colScratch, w)
	}
	e.scratch = e.scratch[:w]
	for i := range e.scratch {
		f := e.floats[i*n*3 : (i+1)*n*3]
		e.scratch[i] = colScratch{
			tile: e.tiles[i*n*colTileCoords : (i+1)*n*colTileCoords],
			col:  f[:n], tmp: f[n : 2*n], dist: f[2*n:],
			idx: e.idx[i*n : (i+1)*n],
		}
	}
	if n > maxSortNet {
		return nil
	}
	if e.nets == nil {
		e.nets = make([][][2]int, maxSortNet+1)
	}
	if e.nets[n] == nil {
		e.nets[n] = SortNetPairs(n)
	}
	return e.nets[n]
}

// Run executes kernel over every coordinate of vs, writing out[j] for each.
// vs must be non-empty with uniform dimension len(out). From colParallelMin
// coordinates up the tiles are spread across GOMAXPROCS goroutines; the
// output is bit-identical either way.
func (e *ColumnEngine) Run(out Vector, vs []Vector, arg int, kernel ColumnKernel) {
	d := len(out)
	n := len(vs)
	if d == 0 {
		return
	}
	nTiles := (d + colTileCoords - 1) / colTileCoords
	workers := min(runtime.GOMAXPROCS(0), nTiles)
	if d < colParallelMin {
		workers = 1
	}
	net := e.ensure(workers, n)
	if !kernel.sortsTile(n, arg) {
		net = nil
	}
	if workers <= 1 {
		for t := 0; t < nTiles; t++ {
			runTile(&e.scratch[0], net, out, vs, t, arg, kernel)
		}
		return
	}
	ParallelFor(nTiles, workers, func(w, t int) {
		runTile(&e.scratch[w], net, out, vs, t, arg, kernel)
	})
}

// runTile computes the output coordinates of tile t. net is the n-input
// sorting network, nil when the tile-wide pass does not apply (columns too
// tall for a network, a kernel or argument it does not serve).
func runTile(s *colScratch, net [][2]int, out Vector, vs []Vector, t, arg int, kernel ColumnKernel) {
	n := len(vs)
	lo := t * colTileCoords
	hi := min(lo+colTileCoords, len(out))
	o := out[lo:hi]
	w := len(o)
	if net == nil {
		for k := range o {
			o[k] = kernel.column(s, vs, lo+k, arg)
		}
		return
	}
	tile := s.tile[:n*w]
	// Row i of the tile is vs[i][lo:hi] as sort keys. An exponent of all
	// ones is a NaN or ±Inf.
	const expMask = 0x7FF << 52
	finite := true
	for i, v := range vs {
		row := tile[i*w : (i+1)*w]
		for k, x := range v[lo:hi] {
			bits := int64(math.Float64bits(x))
			if bits&expMask == expMask {
				finite = false
			}
			row[k] = sortKey(bits)
		}
	}
	// Only a tile that holds a non-finite value pays the second pass that
	// finds its columns. Columns sort independently and any key sorts, so
	// the tile is sorted all the same and just those columns are redone by
	// the per-column kernel.
	nonFinite := s.nonFinite[:w]
	if !finite {
		for _, v := range vs {
			for k, x := range v[lo:hi] {
				if math.Float64bits(x)&expMask == expMask {
					nonFinite[k] = true
				}
			}
		}
	}
	sortRows(tile, w, net)
	mid := tile[n/2*w : (n/2+1)*w]
	switch kernel {
	case MedianKernel:
		for k, key := range mid {
			o[k] = keyFloat(key)
		}
		if n%2 == 0 {
			for k, key := range tile[(n/2-1)*w : n/2*w] {
				o[k] = midpoint(keyFloat(key), o[k])
			}
		}
	case TrimmedMeanKernel:
		clear(o)
		for r := arg; r < n-arg; r++ {
			for k, key := range tile[r*w : (r+1)*w] {
				o[k] += keyFloat(key)
			}
		}
		for k := range o {
			o[k] /= float64(n - 2*arg)
		}
	case MeanAroundMedianKernel:
		for k := range o {
			if nonFinite[k] {
				continue
			}
			mean, ok := meanAroundSorted(tile[k:], w, n, arg)
			if !ok {
				mean = kernel.column(s, vs, lo+k, arg)
			}
			o[k] = mean
		}
	}
	if !finite {
		for k, bad := range nonFinite {
			if bad {
				o[k] = kernel.column(s, vs, lo+k, arg)
			}
		}
		clear(nonFinite)
	}
}

// sortRowsGo sorts every column of the row-major tile (rows of w keys)
// ascending, replaying each compare-exchange of the network over two whole
// rows. It is the sortRows of every GOARCH but amd64 and of an amd64 CPU
// without AVX2, and the oracle FuzzCompareExchange holds the assembly to.
func sortRowsGo(tile []int64, w int, net [][2]int) {
	for _, pr := range net {
		a := tile[pr[0]*w : pr[0]*w+w]
		b := tile[pr[1]*w : pr[1]*w+w]
		b = b[:len(a)] // bounds-check elimination
		for k, x := range a {
			y := b[k]
			a[k] = min(x, y)
			b[k] = max(x, y)
		}
	}
}

// rankAt returns the rank-i value of a sorted tile column (col[i*w]) and its
// distance to med; past either end of the column the distance is +Inf.
func rankAt(col []int64, w, n, i int, med float64) (x, dist float64) {
	if uint(i) >= uint(n) {
		return 0, math.Inf(1)
	}
	x = keyFloat(col[i*w])
	return x, math.Abs(x - med)
}

// meanAroundSorted is the mean-around-median of one column of a sorted,
// finite tile. It walks outward from the median adding the nearer neighbour
// first, which is the order the per-column kernel sums in: by distance, ties
// by worker index. A sorted column no longer carries that index, so ok is
// false wherever it could decide the result: two distinct values at exactly
// equal distance — unless they are the only two that far out, both are kept
// and the sum so far is +0, since 0+a+b == 0+b+a (every even-height column
// may start this way: the midpoint is equidistant from the two middle rows).
// Equal values at equal distance are interchangeable, and the sign of a zero
// cannot move a sum that starts at +0.
func meanAroundSorted(col []int64, w, n, keep int) (mean float64, ok bool) {
	l, r := n/2, n/2+1 // the nearest ranks not taken yet, downward and upward
	med := keyFloat(col[l*w])
	if n%2 == 0 {
		l, r = l-1, l
		med = midpoint(keyFloat(col[l*w]), med)
	}
	xl, dl := rankAt(col, w, n, l, med)
	xr, dr := rankAt(col, w, n, r, med)
	var s float64
	lastX, lastD := 0.0, -1.0 // the value taken last and its distance
	for taken := 0; taken < keep; {
		if dl == dr && xl != xr {
			nl, ndl := rankAt(col, w, n, l-1, med)
			nr, ndr := rankAt(col, w, n, r+1, med)
			// +Inf here is |x−med| overflowing (or one side run out
			// against it): such distances no longer rank anything.
			if math.IsInf(dl, 1) || s != 0 || taken+2 > keep || ndl == dl || ndr == dl {
				return 0, false
			}
			s = xl + xr
			lastX, lastD = xr, dl
			l, xl, dl = l-1, nl, ndl
			r, xr, dr = r+1, nr, ndr
			taken += 2
			continue
		}
		x, d := xl, dl
		if dl <= dr {
			l--
			xl, dl = rankAt(col, w, n, l, med)
		} else {
			x, d = xr, dr
			r++
			xr, dr = rankAt(col, w, n, r, med)
		}
		if d == lastD && x != lastX {
			return 0, false
		}
		s += x
		lastX, lastD = x, d
		taken++
	}
	// Values as far out as the last one taken but left behind: which of
	// them is kept is again the worker order's call, unless all are equal.
	for ; dl == lastD; xl, dl = rankAt(col, w, n, l, med) {
		if xl != lastX {
			return 0, false
		}
		l--
	}
	for ; dr == lastD; xr, dr = rankAt(col, w, n, r, med) {
		if xr != lastX {
			return 0, false
		}
		r++
	}
	return s / float64(keep), true
}

// column gathers coordinate j of vs and runs the exact per-column kernel.
// Each reproduces its sort-based definition bit for bit (same candidate
// multiset, same ascending summation order), NaN and ±Inf included.
func (k ColumnKernel) column(s *colScratch, vs []Vector, j, arg int) float64 {
	col := s.col
	for i, v := range vs {
		col[i] = v[j]
	}
	switch k {
	case MedianKernel:
		return MedianInPlace(col)
	case TrimmedMeanKernel:
		return trimmedMeanColumn(col, arg)
	case NaNMeanKernel:
		return nanMeanColumn(col)
	}
	return meanAroundMedianColumn(s, arg)
}

// trimmedMeanColumn is TrimmedMeanKernel on one gathered column.
func trimmedMeanColumn(col []float64, b int) float64 {
	n := len(col)
	nn := moveNaNsFront(col)
	if nn > b {
		// NaNs rank first, so they spill past the low trim into the
		// kept window: the sort-based reference sums them, yielding NaN.
		return math.NaN()
	}
	// The kept window is ranks [b, n−b) of the NaN-first sorted column;
	// with nn NaNs swapped out that is ranks [b−nn, n−b−nn) of the clean
	// values. Select the window, then sort only it and sum ascending.
	clean := col[nn:]
	lo, hi := b-nn, n-b-nn
	partialSelectNoNaN(clean, hi)
	partialSelectNoNaN(clean[:hi], lo)
	kept := clean[lo:hi]
	insertionSortNoNaN(kept)
	var s float64
	for _, x := range kept {
		s += x
	}
	return s / float64(len(kept))
}

// nanMeanColumn is NaNMeanKernel on one gathered column.
func nanMeanColumn(col []float64) float64 {
	var s float64
	var n int
	for _, x := range col {
		if !math.IsNaN(x) {
			s += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// meanAroundMedianColumn is MeanAroundMedianKernel on the gathered s.col.
func meanAroundMedianColumn(s *colScratch, keep int) float64 {
	col := s.col
	copy(s.tmp, col)
	med := MedianInPlace(s.tmp)
	if math.IsNaN(med) {
		// Every value NaN, or midpoint(-Inf, +Inf) without any NaN
		// input: no usable pivot exists, so emit the null update rather
		// than let NaN reach the parameters.
		return 0
	}
	closest := ClosestToPivotInto(s.idx, s.dist, col, med, keep)
	var sum float64
	var cnt int
	for _, idx := range closest {
		x := col[idx]
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			sum += x
			cnt++
		}
	}
	if cnt == 0 {
		return med
	}
	return sum / float64(cnt)
}
