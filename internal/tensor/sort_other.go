//go:build !amd64

package tensor

// sortRows is the tile sort runTile runs: the Go loop wherever
// sort_amd64.s does not build.
var sortRows = sortRowsGo

// Kernels names the kernel set this process computes with, for benchmark
// reports: the Go kernels on every GOARCH without assembly.
func Kernels() string { return "portable" }
