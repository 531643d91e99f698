//go:build !amd64 || purego

package tensor

// matMul runs MatMul's blocks: the Go loop wherever matmul_amd64.s does not
// build.
func matMul(out, a, b *Matrix) { matMulGo(out, a, b) }

// matMulTransA runs MatMulTransA's blocks: the Go loop wherever
// matmul_amd64.s does not build.
func matMulTransA(out, a, b *Matrix) { matMulTransAGo(out, a, b) }
