//go:build !amd64

package gar

// blockDistance is the kernel distSweep runs: the Go function wherever
// dist_amd64.s does not build.
var blockDistance = blockDistance4
