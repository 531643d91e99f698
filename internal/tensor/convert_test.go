package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// wireFloat32s and wireFloat64s view n values at byte offset off of buf, as
// the float32 codec views a datagram's coordinates: at any alignment.
func wireFloat32s(buf []byte, off, n int) []float32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&buf[off : off+4*n][0])), n)
}

func wireFloat64s(buf []byte, off, n int) []float64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&buf[off : off+8*n][0])), n)
}

// guard fills the bytes a conversion must not touch, past its destination.
const guard = 0xa5

// checkWiden widens the n float32s at byte offset off of src with the
// dispatched kernel and with the Go loop, each into a float64 destination at
// the same offset, and requires the same bits and untouched guard bytes.
func checkWiden(t *testing.T, src []byte, off, n int) {
	t.Helper()
	from := wireFloat32s(src, off, n)
	gotBuf, wantBuf := make([]byte, off+8*n+8), make([]byte, off+8*n+8)
	for i := range gotBuf {
		gotBuf[i], wantBuf[i] = guard, guard
	}
	got, want := wireFloat64s(gotBuf, off, n), wireFloat64s(wantBuf, off, n)
	WidenFloat32(got, from)
	widenGo(want, from)
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: n=%d off=%d: widen of %#08x at %d = %#016x, the Go loop gives %#016x",
				Kernels(), n, off, math.Float32bits(from[k]), k, math.Float64bits(got[k]), math.Float64bits(want[k]))
		}
	}
	checkGuard(t, "widen", gotBuf, off+8*n, n, off)
}

// checkNarrow is checkWiden's twin for the float64 → float32 direction.
func checkNarrow(t *testing.T, src []byte, off, n int) {
	t.Helper()
	from := wireFloat64s(src, off, n)
	gotBuf, wantBuf := make([]byte, off+4*n+8), make([]byte, off+4*n+8)
	for i := range gotBuf {
		gotBuf[i], wantBuf[i] = guard, guard
	}
	got, want := wireFloat32s(gotBuf, off, n), wireFloat32s(wantBuf, off, n)
	NarrowFloat64(got, from)
	narrowGo(want, from)
	for k := range want {
		if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
			t.Fatalf("%s: n=%d off=%d: narrow of %#016x at %d = %#08x, the Go loop gives %#08x",
				Kernels(), n, off, math.Float64bits(from[k]), k, math.Float32bits(got[k]), math.Float32bits(want[k]))
		}
	}
	checkGuard(t, "narrow", gotBuf, off+4*n, n, off)
}

func checkGuard(t *testing.T, dir string, buf []byte, end, n, off int) {
	t.Helper()
	for i, b := range buf {
		if (i < off || i >= end) && b != guard {
			t.Fatalf("%s: n=%d off=%d: %s wrote byte %d, outside its destination", Kernels(), n, off, dir, i)
		}
	}
}

// edgeFloat32s are the float32 bit patterns a widen could get wrong:
// signalling and quiet NaNs of both signs with payloads at both ends of the
// mantissa, ±Inf, ±0, subnormals, both ends of the normal range and one.
var edgeFloat32s = []uint32{
	0x7f800001, 0x7fa00000, 0x7fbfffff, 0xff800001, 0xffbfffff, // signalling NaNs
	0x7fc00000, 0x7fc00001, 0x7fffffff, 0xffc00000, 0xffffffff, // quiet NaNs
	0x7f800000, 0xff800000, 0, 0x80000000, // ±Inf, ±0
	1, 0x80000001, 0x007fffff, 0x807fffff, 0x00400000, // subnormals
	0x00800000, 0x7f7fffff, 0xff7fffff, 0x3f800000, 0xbf800001,
}

// edgeFloat64s are the float64 bit patterns a narrow could get wrong, beside
// every widened edgeFloat32: NaN payloads float32 keeps part of or none of,
// values past float32's range and just inside it, float64 subnormals, values
// that underflow to float32 subnormals or zero, and exact round-half-to-even
// ties — normal and subnormal, rounding down and up, of both signs.
var edgeFloat64s = []uint64{
	0x7ff0_0000_0000_0001, 0x7ff4_0000_0000_0000, 0xfff0_0000_2000_0000, 0x7ff7_ffff_ffff_ffff, // signalling NaNs
	0x7ff8_0000_0000_0001, 0xfff8_0000_0000_0000, 0x7fff_ffff_ffff_ffff, 0x7ffc_0000_2000_0000, // quiet NaNs
	0x47f0_0000_0000_0000, 0xc7f0_0000_0000_0000, 0x7fef_ffff_ffff_ffff, // 2^128, -2^128, MaxFloat64
	0x47ef_ffff_f000_0000, 0x47ef_ffff_efff_ffff, 0xc7ef_ffff_f000_0000, // MaxFloat32 + half an ulp (a tie to ±Inf), just under
	0x47ef_ffff_e000_0000,                           // MaxFloat32
	1, 0x8000_0000_0000_0001, 0x000f_ffff_ffff_ffff, // float64 subnormals
	0x36a0_0000_0000_0000, 0x3690_0000_0000_0000, 0x36a8_0000_0000_0000, // 2^-149, 2^-150 (a tie to 0), 3·2^-150 (a tie up to 2^-148)
	0xb690_0000_0000_0001, 0x3690_0000_0000_0001, // just over a subnormal tie, both signs
	0x3ff0_0000_1000_0000, 0x3ff0_0000_3000_0000, 0xbff0_0000_1000_0000, // 1 + 2^-24 (a tie down), 1 + 3·2^-24 (a tie up), negative
	0x3ff0_0000_0fff_ffff, 0x3ff0_0000_1000_0001, // either side of a tie
	0x3810_0000_0000_0000, 0x380f_ffff_e000_0000, // MinNormalFloat32, and a tie that rounds up into it
}

// convertPool is the test's supply of values, as wire bytes of each width:
// every edge pattern, then seeded random bit patterns and random normal
// values, so neighbouring lanes hold different values.
func convertPool() (f32, f64 []byte) {
	rng := rand.New(rand.NewSource(50))
	for _, b := range edgeFloat32s {
		f32 = binary.LittleEndian.AppendUint32(f32, b)
		f64 = binary.LittleEndian.AppendUint64(f64, math.Float64bits(float64(math.Float32frombits(b))))
	}
	for _, b := range edgeFloat64s {
		f64 = binary.LittleEndian.AppendUint64(f64, b)
	}
	for len(f32) < 4*256 {
		f32 = binary.LittleEndian.AppendUint32(f32, rng.Uint32())
		f32 = binary.LittleEndian.AppendUint32(f32, math.Float32bits(float32(rng.NormFloat64())))
	}
	for len(f64) < 8*256 {
		f64 = binary.LittleEndian.AppendUint64(f64, rng.Uint64())
		f64 = binary.LittleEndian.AppendUint64(f64, math.Float64bits(rng.NormFloat64()))
	}
	return f32, f64
}

// TestConvertFloat32MatchesGo holds the dispatched widen and narrow to the Go
// conversions at every length from 0 to 67 — every count of sixteen- and
// four-value steps and every tail — with the wire side at every byte offset
// from 0 to 7 (a datagram's coordinates start 38 bytes in, 2 mod 4), over
// windows of the pool that start at every edge pattern, so each edge value
// passes through every lane and every tail position.
func TestConvertFloat32MatchesGo(t *testing.T) {
	f32, f64 := convertPool()
	for n := 0; n <= 67; n++ {
		for off := 0; off < 8; off++ {
			for s := 0; s < len(edgeFloat32s); s++ {
				checkWiden(t, append(make([]byte, off), f32[4*s:4*s+4*n]...), off, n)
			}
			for s := 0; s < len(edgeFloat32s)+len(edgeFloat64s); s++ {
				checkNarrow(t, append(make([]byte, off), f64[8*s:8*s+8*n]...), off, n)
			}
		}
	}
}

// TestConvertFloat32Semantics pins what the Go conversions themselves do to
// the patterns the wire contract names, so the oracle is the contract and
// not only the kernel's twin: widening is exact and quiets a signalling NaN
// with its payload kept; narrowing rounds ties to even, overflows to ±Inf and
// quiets a signalling NaN, keeping its payload's top bits.
func TestConvertFloat32Semantics(t *testing.T) {
	widened := make([]float64, 1)
	for _, c := range []struct {
		in   uint32
		want uint64
	}{
		{0x7f800001, 0x7ff8_0000_2000_0000}, {0xffbfffff, 0xffff_ffff_e000_0000},
		{0x7fc00001, 0x7ff8_0000_2000_0000}, {1, 0x36a0_0000_0000_0000},
	} {
		WidenFloat32(widened, []float32{math.Float32frombits(c.in)})
		if got := math.Float64bits(widened[0]); got != c.want {
			t.Errorf("%s: widen %#08x = %#016x, want %#016x", Kernels(), c.in, got, c.want)
		}
	}
	narrowed := make([]float32, 1)
	for _, c := range []struct {
		in   uint64
		want uint32
	}{
		{0x7ff0_0000_0000_0001, 0x7fc00000}, {0x7ff4_0000_0000_0000, 0x7fe00000},
		{0x47ef_ffff_f000_0000, 0x7f800000}, {0x47ef_ffff_efff_ffff, 0x7f7fffff},
		{0x3ff0_0000_1000_0000, 0x3f800000}, {0x3ff0_0000_3000_0000, 0x3f800002},
		{0x3690_0000_0000_0000, 0}, {0x36a8_0000_0000_0000, 2}, {0x380f_ffff_e000_0000, 0x00800000}, {0xb690_0000_0000_0001, 0x80000001},
	} {
		NarrowFloat64(narrowed, []float64{math.Float64frombits(c.in)})
		if got := math.Float32bits(narrowed[0]); got != c.want {
			t.Errorf("%s: narrow %#016x = %#08x, want %#08x", Kernels(), c.in, got, c.want)
		}
	}
}

// FuzzConvertFloat32 feeds arbitrary wire bytes, at any byte offset and any
// length the bytes cover, through both directions: the dispatched widen and
// narrow must give the Go conversions' bits and write nothing past their
// destinations.
func FuzzConvertFloat32(f *testing.F) {
	f32, f64 := convertPool()
	f.Add(uint8(0), uint8(4), f32[:16])
	f.Add(uint8(2), uint8(19), f32[:100])
	f.Add(uint8(5), uint8(67), f64[:8*80])
	f.Add(uint8(7), uint8(255), append(f64, f32...))
	f.Fuzz(func(t *testing.T, off, length uint8, raw []byte) {
		o := int(off) % 8
		if len(raw) <= o {
			return
		}
		checkWiden(t, raw, o, min(int(length), (len(raw)-o)/4))
		checkNarrow(t, raw, o, min(int(length), (len(raw)-o)/8))
	})
}
