//go:build !amd64 || purego

package tensor

// sortRows is the tile sort runTile runs: the Go loop wherever
// sort_amd64.s does not build.
var sortRows = sortRowsGo

// fillKeys is the tile fill runTile runs: the Go loop wherever sort_amd64.s
// does not build.
var fillKeys = fillKeysGo

// meanAroundWalk is the walk runTile's mean-around-median pass starts with:
// the Go walk's decline-everything wherever sort_amd64.s does not build.
var meanAroundWalk = meanAroundWalkGo

// HasAVX2 reports whether the GAR's AVX2 assembly may run: never where
// sort_amd64.s does not build.
func HasAVX2() bool { return false }

// Kernels names the kernel set this process computes with, for benchmark
// reports: the Go kernels off amd64 and under the purego build tag.
func Kernels() string { return "portable" }
