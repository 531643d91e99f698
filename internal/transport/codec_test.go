package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aggregathor/internal/tensor"
)

func randVec(rng *rand.Rand, d int) tensor.Vector {
	v := tensor.NewVector(d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestGradientRoundTripFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := Codec{}
	m := &GradientMsg{Worker: 7, Step: 42, Loss: 0.734375, Grad: randVec(rng, 100)}
	got, err := c.decodeFrame(c.EncodeGradient(m), false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Worker != 7 || got.Step != 42 || got.Loss != 0.734375 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range m.Grad {
		if got.Coords[i] != m.Grad[i] {
			t.Fatalf("float64 codec must be lossless; coord %d: %v vs %v", i, got.Coords[i], m.Grad[i])
		}
	}
}

func TestGradientRoundTripFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := Codec{Float32: true}
	m := &GradientMsg{Worker: 1, Step: 2, Loss: 1.0 / 3.0, Grad: randVec(rng, 50)}
	got, err := c.decodeFrame(c.EncodeGradient(m), false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Loss != m.Loss {
		t.Fatalf("loss metadata must stay 8-byte even on the float32 wire: %v vs %v", got.Loss, m.Loss)
	}
	for i := range m.Grad {
		if math.Abs(got.Coords[i]-m.Grad[i]) > 1e-6*(1+math.Abs(m.Grad[i])) {
			t.Fatalf("float32 precision loss too large at %d", i)
		}
	}
}

func TestModelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := Codec{}
	m := &ModelMsg{Step: 9, Params: randVec(rng, 64)}
	got, err := c.decodeFrame(c.EncodeModel(m), true)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 9 || got.Coords.Dim() != 64 {
		t.Fatalf("header mismatch: step=%d dim=%d", got.Step, got.Coords.Dim())
	}
	for i := range m.Params {
		if got.Coords[i] != m.Params[i] {
			t.Fatal("model codec must be lossless")
		}
	}
}

func TestCodecPreservesNonFinite(t *testing.T) {
	c := Codec{}
	m := &GradientMsg{Grad: tensor.Vector{math.NaN(), math.Inf(1), math.Inf(-1), 0}}
	got, err := c.decodeFrame(c.EncodeGradient(m), false)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.Coords[0]) || !math.IsInf(got.Coords[1], 1) || !math.IsInf(got.Coords[2], -1) {
		t.Fatalf("non-finite coords mangled: %v", got.Coords)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	c := Codec{}
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, packetHeaderLen), // zero magic
	}
	for i, buf := range cases {
		if _, err := c.decodeFrame(buf, false); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("case %d: want ErrBadFrame, got %v", i, err)
		}
		if _, err := c.decodeFrame(buf, true); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("model case %d: want ErrBadFrame, got %v", i, err)
		}
	}
}

func TestDecodeRejectsTruncatedBody(t *testing.T) {
	c := Codec{}
	buf := c.EncodeGradient(&GradientMsg{Grad: tensor.Vector{1, 2, 3}})
	if _, err := c.decodeFrame(buf[:len(buf)-4], false); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame, got %v", err)
	}
}

func TestDecodeRejectsWrongType(t *testing.T) {
	c := Codec{}
	grad := c.EncodeGradient(&GradientMsg{Grad: tensor.Vector{1}})
	if _, err := c.decodeFrame(grad, true); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("model decoder accepted gradient frame: %v", err)
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	c := Codec{}
	f := func(worker uint16, step uint16, coords []float64) bool {
		m := &GradientMsg{Worker: int(worker), Step: int(step), Grad: coords}
		got, err := c.decodeFrame(c.EncodeGradient(m), false)
		if err != nil {
			return false
		}
		if got.Worker != m.Worker || got.Step != m.Step || got.Coords.Dim() != len(coords) {
			return false
		}
		for i := range coords {
			a, b := got.Coords[i], coords[i]
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitCoversAllCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := Codec{Float32: true}
	m := &GradientMsg{Worker: 3, Step: 5, Grad: randVec(rng, 1000)}
	packets := c.Split(m, 128)
	covered := make([]bool, 1000)
	for _, p := range packets {
		if p.Worker != 3 || p.Step != 5 || p.Dim != 1000 {
			t.Fatalf("packet header mismatch: %+v", p)
		}
		for i := range p.Coords {
			if covered[p.Offset+i] {
				t.Fatalf("coordinate %d covered twice", p.Offset+i)
			}
			covered[p.Offset+i] = true
		}
	}
	for i, ok := range covered {
		if !ok {
			t.Fatalf("coordinate %d not covered", i)
		}
	}
}

func TestSplitRespectsMTU(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := Codec{}
	m := &GradientMsg{Grad: randVec(rng, 5000)}
	for _, p := range c.Split(m, DefaultMTU) {
		if size := len(c.AppendPacket(nil, &p)); size > DefaultMTU {
			t.Fatalf("packet of %d bytes exceeds MTU %d", size, DefaultMTU)
		}
	}
}

func TestPacketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := Codec{}
	p := Packet{Worker: 2, Step: 11, Dim: 100, Offset: 40, Coords: randVec(rng, 10)}
	got, err := c.DecodePacket(c.AppendPacket(nil, &p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Worker != 2 || got.Step != 11 || got.Dim != 100 || got.Offset != 40 {
		t.Fatalf("packet header mismatch: %+v", got)
	}
	for i := range p.Coords {
		if got.Coords[i] != p.Coords[i] {
			t.Fatal("packet payload mismatch")
		}
	}
}

func TestDecodePacketRejectsBadRange(t *testing.T) {
	c := Codec{}
	p := Packet{Worker: 1, Step: 1, Dim: 5, Offset: 4, Coords: tensor.Vector{1, 2}}
	if _, err := c.DecodePacket(c.AppendPacket(nil, &p)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame for out-of-range packet, got %v", err)
	}
}

func TestCoordsPerPacket(t *testing.T) {
	if got := (Codec{Float32: true}).CoordsPerPacket(DefaultMTU); got != (DefaultMTU-packetHeaderLen)/4 {
		t.Fatalf("float32 coords/packet = %d", got)
	}
	if got := (Codec{}).CoordsPerPacket(10); got != 1 {
		t.Fatalf("tiny MTU must still carry one coordinate, got %d", got)
	}
}

// TestParseRecoupPolicy: the parser inverts RecoupPolicy.String, the one
// spelling of the policy names every entry point reads.
func TestParseRecoupPolicy(t *testing.T) {
	for _, want := range []RecoupPolicy{DropGradient, FillNaN, FillRandom} {
		got, err := ParseRecoupPolicy(want.String())
		if err != nil || got != want {
			t.Fatalf("ParseRecoupPolicy(%q) = %v, %v", want, got, err)
		}
	}
	for _, bad := range []string{"nope", "", "Fill-NaN"} {
		if _, err := ParseRecoupPolicy(bad); err == nil {
			t.Fatalf("unknown policy %q accepted", bad)
		}
	}
}

// TestCoordsMatchByteLoop holds the codec's in-place coordinate paths — one
// copy on the float64 wire, a float32 view through tensor's widen and narrow
// on the float32 one — to the per-coordinate byte loop a big-endian host
// runs, which spells the wire contract out: at every length from 0 to 67 and
// every byte offset from 0 to 7 (a datagram's coordinates start 38 bytes in),
// with the dispatched kernels and with tensor.GoKernels, on vectors and wire
// bytes that hold NaN payloads, infinities, zeros, subnormals and values
// float32 overflows on or rounds at a tie.
func TestCoordsMatchByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	vec := tensor.NewVector(67)
	wire := make([]byte, 8*67)
	for k := range vec {
		switch k % 4 {
		case 0:
			vec[k] = rng.NormFloat64()
		case 1:
			vec[k] = math.Float64frombits(rng.Uint64())
		default:
			vec[k] = math.Float64frombits([]uint64{
				0x7ff0_0000_0000_0001, 0xfff4_0000_2000_0000, 0x7ff8_0000_0000_0001, 0x47ef_ffff_f000_0000,
				0x3ff0_0000_1000_0000, 0x3690_0000_0000_0000, 1, 1 << 63, 0x7ff0_0000_0000_0000,
			}[k%9])
		}
	}
	for k := 0; k < len(wire); k += 4 {
		binary.LittleEndian.PutUint32(wire[k:], []uint32{0x7f800001, 0xffbfffff, 0x7fc00001, 1, 0x80000000, rng.Uint32()}[k/4%6])
	}
	for _, kernels := range []string{tensor.Kernels(), "go"} {
		restore := func() {}
		if kernels == "go" {
			restore = tensor.GoKernels()
		}
		for _, c := range []Codec{{}, {Float32: true}} {
			w := c.BytesPerCoord()
			for n := 0; n <= 67; n++ {
				for off := 0; off < 8; off++ {
					got, want := make([]byte, off+n*w+8), make([]byte, off+n*w+8)
					c.putCoords(got[off:], vec[:n])
					c.putCoordsBytes(want[off:], vec[:n])
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: %d-byte wire, n=%d off=%d: putCoords wrote % x, the byte loop % x", kernels, w, n, off, got, want)
					}
					src := append(make([]byte, off), wire[:n*w]...)
					gotV, wantV := tensor.NewVector(n), tensor.NewVector(n)
					c.getCoords(src[off:], gotV)
					c.getCoordsBytes(src[off:], wantV)
					for k := range wantV {
						if math.Float64bits(gotV[k]) != math.Float64bits(wantV[k]) {
							t.Fatalf("%s: %d-byte wire, n=%d off=%d: getCoords coordinate %d = %#x, the byte loop %#x",
								kernels, w, n, off, k, math.Float64bits(gotV[k]), math.Float64bits(wantV[k]))
						}
					}
				}
			}
		}
		restore()
	}
}

// BenchmarkFloat32Coords times one conversion of a udp-lossy-25k gradient
// (d = 25,450) each way on the float32 wire: through the codec's float32
// view (tensor's kernels, AVX2 where Kernels says so) and through the
// per-coordinate byte loop.
func BenchmarkFloat32Coords(b *testing.B) {
	const d = 25_450
	c := Codec{Float32: true}
	v := randVec(rand.New(rand.NewSource(50)), d)
	wire := make([]byte, packetHeaderLen+4*d)[packetHeaderLen:] // a datagram's alignment
	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"narrow/view", func() { c.putCoords(wire, v) }},
		{"narrow/bytes", func() { c.putCoordsBytes(wire, v) }},
		{"widen/view", func() { c.getCoords(wire, v) }},
		{"widen/bytes", func() { c.getCoordsBytes(wire, v) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(4 * d)
			for i := 0; i < b.N; i++ {
				bc.run()
			}
		})
	}
}
