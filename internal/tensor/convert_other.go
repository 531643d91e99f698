//go:build !amd64 || purego

package tensor

// widen and narrow are the float32 wire's conversions: the Go loops wherever
// convert_amd64.s does not build.
var widen, narrow = widenGo, narrowGo
