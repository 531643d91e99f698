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

// Kernels names the kernel set this process computes with — the GAR's
// distance sweep (SSE2, baseline on amd64) and tile sort (AVX2 where the CPU
// and OS have it) — for benchmark reports. Every set produces the same bits.
func Kernels() string {
	if hasAVX2 {
		return "amd64 sse2+avx2"
	}
	return "amd64 sse2"
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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
