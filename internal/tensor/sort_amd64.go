//go:build !purego

package tensor

// hasAVX2 reports, from the CPUID/XGETBV probe in sort_amd64.s run once at
// package init, whether the CPU has AVX2 and the OS saves the YMM state.
var hasAVX2 = probeAVX2()

// sortRows is the tile sort runTile runs: the AVX2 compare-exchange where
// the probe found it, the Go loop otherwise. Nothing else selects it.
var sortRows = pickSortRows()

func pickSortRows() func(tile []int64, w int, net [][2]int) {
	if hasAVX2 {
		return sortRowsAVX2
	}
	return sortRowsGo
}

// fillKeys is the tile fill runTile runs: four keys a step in AVX2 where the
// probe found it, the Go loop otherwise.
var fillKeys = pickFillKeys()

func pickFillKeys() func(dst []int64, src []float64) bool {
	if hasAVX2 {
		return fillKeysAVX2
	}
	return fillKeysGo
}

// meanAroundWalk is the walk runTile's mean-around-median pass starts with:
// four columns a register in AVX2 where the probe found it, the Go walk's
// decline-everything otherwise.
var meanAroundWalk = pickMeanAroundWalk()

func pickMeanAroundWalk() func(tile []int64, w, n, keep int, out []float64, declined []uint8) {
	if hasAVX2 {
		return meanAroundAVX2
	}
	return meanAroundWalkGo
}

// HasAVX2 reports the probe's answer: the one place the kernels — the GAR's,
// here and in package gar, the dense matmuls' and the float32 wire's —
// learn whether their AVX2 assembly may run.
func HasAVX2() bool { return hasAVX2 }

// Kernels names the kernel set this process computes with — the GAR's
// distance sweep, tile fill, tile sort and mean-around-median walk, the
// workers' MatMul and MatMulTransA (dense, zero-holding and one to three
// columns wide) and the float32 wire's widen and narrow, in AVX2 assembly where the CPU and OS have it and the Go
// kernels ("portable") otherwise — for benchmark reports. Every set
// produces the same bits.
func Kernels() string {
	if hasAVX2 {
		return "amd64 avx2"
	}
	return "portable"
}

func probeAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmSSE  = 0b110   // XCR0: the OS saves XMM and YMM state
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmSSE != ymmSSE {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// sortRowsAVX2 is sortRowsGo with the inner loop in assembly; the row slices
// keep its bounds checks.
func sortRowsAVX2(tile []int64, w int, net [][2]int) {
	for _, pr := range net {
		compareExchangeAVX2(tile[pr[0]*w:pr[0]*w+w], tile[pr[1]*w:pr[1]*w+w])
	}
}

//go:noescape
func compareExchangeAVX2(a, b []int64)

// fillKeysAVX2 is fillKeysGo with a row's whole groups of four values in
// assembly; the Go loop fills the last one to three.
func fillKeysAVX2(dst []int64, src []float64) bool {
	quads := len(src) &^ 3
	dst = dst[:len(src)]
	finite := fillKeys4AVX2(dst[:quads], src[:quads])
	return fillKeysGo(dst[quads:], src[quads:]) && finite
}

//go:noescape
func fillKeys4AVX2(dst []int64, src []float64) (finite bool)

// meanAroundAVX2 runs the assembly walk over the tile's whole groups of four
// columns and declines a last group of one to three to meanAroundSorted. The
// reslicing keeps the assembly inside its arguments, and the guard keeps it
// to the shapes it serves: two ranks around the median to load, a keep count
// the column can fill, and queues of at most maxSortNet ranks.
func meanAroundAVX2(tile []int64, w, n, keep int, out []float64, declined []uint8) {
	groups := w / 4
	if n < 2 || n > maxSortNet || keep < 1 || keep > n {
		groups = 0
	}
	tile, out, declined = tile[:n*w], out[:w], declined[:(w+3)/4]
	meanAround4AVX2(tile, w, n, keep, out, declined[:groups])
	for g := groups; g < len(declined); g++ {
		declined[g] = 0xf
	}
}

//go:noescape
func meanAround4AVX2(tile []int64, w, n, keep int, out []float64, declined []uint8)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
