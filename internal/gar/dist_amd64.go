package gar

// blockDistance is the kernel distSweep runs: on amd64 the SSE2 transcription
// of blockDistance4 in dist_amd64.s (SSE2 is baseline amd64, so nothing is
// probed), bit-identical to it; TestRulesMatchOnGoKernels points it back
// at the Go function.
var blockDistance = blockDistance4Asm

// blockDistance4Asm keeps blockDistance4's length checks in front of the
// assembly, which reads len(a) coordinates of every block unchecked: a short
// block is a panic here, never an out-of-bounds read there.
func blockDistance4Asm(a, b0, b1, b2, b3 []float64) (r0, r1, r2, r3 float64) {
	n := len(a)
	return blockDistance4SSE2(a, b0[:n], b1[:n], b2[:n], b3[:n])
}

//go:noescape
func blockDistance4SSE2(a, b0, b1, b2, b3 []float64) (r0, r1, r2, r3 float64)
