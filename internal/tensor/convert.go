package tensor

// WidenFloat32 sets dst[k] = float64(src[k]) for every k < len(src) — the
// float32 wire's decode. Every float32 widens exactly; a signalling NaN comes
// back quiet (its top mantissa bit set), its payload kept. The AVX2 kernel,
// where the probe found it, gives the bits the Go conversion gives.
func WidenFloat32(dst Vector, src []float32) { widen(dst[:len(src)], src) }

// NarrowFloat64 sets dst[k] = float32(src[k]) for every k < len(src) — the
// float32 wire's encode: rounded to nearest, ties to even, values beyond
// float32's range to ±Inf, a signalling NaN quieted and its payload cut to
// float32's top mantissa bits. The AVX2 kernel, where the probe found it,
// gives the bits the Go conversion gives.
func NarrowFloat64(dst []float32, src Vector) { narrow(dst[:len(src)], src) }

// widenGo is WidenFloat32's Go loop: the widen of every GOARCH but amd64 and
// of an amd64 CPU without AVX2, and the oracle the assembly is held to.
func widenGo(dst []float64, src []float32) {
	dst = dst[:len(src)]
	for k, x := range src {
		dst[k] = float64(x)
	}
}

// narrowGo is NarrowFloat64's Go loop and the narrow's oracle.
func narrowGo(dst []float32, src []float64) {
	dst = dst[:len(src)]
	for k, x := range src {
		dst[k] = float32(x)
	}
}
