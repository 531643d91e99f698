//go:build !purego

package gar

import "aggregathor/internal/tensor"

// blockDistance is the kernel distSweep runs: the AVX2 transcription of
// blockDistance8 in dist_amd64.s where tensor's CPU probe found AVX2,
// bit-identical to it, and the Go function otherwise; TestRulesMatchOnGoKernels
// points it back at the Go function.
var blockDistance = pickBlockDistance()

func pickBlockDistance() func(a []float64, b [8][]float64) [8]float64 {
	if tensor.HasAVX2() {
		return blockDistance8Asm
	}
	return blockDistance8
}

// blockDistance8Asm keeps blockDistance4's length checks in front of the
// assembly, which reads len(a) coordinates of every block unchecked: a short
// block is a panic here, never an out-of-bounds read there.
func blockDistance8Asm(a []float64, b [8][]float64) [8]float64 {
	for k := range b {
		b[k] = b[k][:len(a)]
	}
	return blockDistance8AVX2(a, b)
}

//go:noescape
func blockDistance8AVX2(a []float64, b [8][]float64) (r [8]float64)
