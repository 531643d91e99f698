//go:build !purego

package tensor

// widen and narrow are the float32 wire's conversions: four coordinates a
// step in AVX2 where the probe found it, the Go loops otherwise.
var widen, narrow = pickConvert()

func pickConvert() (func([]float64, []float32), func([]float32, []float64)) {
	if hasAVX2 {
		return widenAVX2, narrowAVX2
	}
	return widenGo, narrowGo
}

// widenAVX2 is widenGo with the whole groups of four in assembly; the Go
// loop converts the last one to three.
func widenAVX2(dst []float64, src []float32) {
	quads := len(src) &^ 3
	dst = dst[:len(src)]
	widen4AVX2(dst[:quads], src[:quads])
	widenGo(dst[quads:], src[quads:])
}

// narrowAVX2 is narrowGo with the whole groups of four in assembly; the Go
// loop converts the last one to three.
func narrowAVX2(dst []float32, src []float64) {
	quads := len(src) &^ 3
	dst = dst[:len(src)]
	narrow4AVX2(dst[:quads], src[:quads])
	narrowGo(dst[quads:], src[quads:])
}

//go:noescape
func widen4AVX2(dst []float64, src []float32)

//go:noescape
func narrow4AVX2(dst []float32, src []float64)
