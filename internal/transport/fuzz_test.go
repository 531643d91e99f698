package transport

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"slices"
	"testing"

	"aggregathor/internal/tensor"
)

// hasSignallingNaN32 reports whether the little-endian float32 coordinates
// hold a signalling NaN (exponent all ones, top mantissa bit clear, mantissa
// non-zero): the one bit pattern the float32 wire does not carry through,
// because widening it to float64 sets that bit (see Codec.getCoords).
func hasSignallingNaN32(coords []byte) bool {
	for ; len(coords) >= 4; coords = coords[4:] {
		bits := binary.LittleEndian.Uint32(coords)
		if bits&0x7fc00000 == 0x7f800000 && bits&0x003fffff != 0 {
			return true
		}
	}
	return false
}

// TestPacketCodecQuietsSignallingNaN32 pins the codec's canonicalisation on
// the datagram FuzzDecodePacket found (testdata/fuzz/FuzzDecodePacket): a
// float32 signalling NaN decodes to the quiet NaN with the same payload,
// which re-encodes as that quiet NaN and decodes to the same bits again.
func TestPacketCodecQuietsSignallingNaN32(t *testing.T) {
	c := Codec{Float32: true}
	data := c.EncodePacket(&Packet{Worker: 1, Step: 2, Dim: 1, Coords: tensor.Vector{0}})
	coord := data[packetHeaderLen:]
	binary.LittleEndian.PutUint32(coord, 0x7f800001)
	if !hasSignallingNaN32(coord) {
		t.Fatal("0x7f800001 is a signalling NaN")
	}
	p, err := c.DecodePacket(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(p.Coords[0]), uint64(0x7ff8000020000000); got != want {
		t.Fatalf("decoded %#x, want the quiet NaN %#x", got, want)
	}
	re := c.EncodePacket(p)
	if got := binary.LittleEndian.Uint32(re[packetHeaderLen:]); got != 0x7fc00001 {
		t.Fatalf("re-encoded %#x, want the quiet NaN 0x7fc00001", got)
	}
	if again, err := c.DecodePacket(re); err != nil || !samePacket(again, p) {
		t.Fatalf("decode(encode(decode(x))) = %+v (error %v), want decode(x) = %+v", again, err, p)
	}
}

// FuzzDecodePacket feeds arbitrary bytes to the datagram decoder under both
// wire widths: it must never panic, whatever it accepts must re-encode to
// the exact input bytes (decode is the inverse of encode on its image) unless
// a float32 coordinate is a signalling NaN, what it re-encodes to must decode
// to the same packet bit for bit always, and anything accepted under one
// width must be rejected by the opposite-width codec with ErrWireFormat —
// the loud mismatch the width byte exists for.
// Every input is also decoded with DecodePacketInto over a packet that just
// held a longer one: the same error and an empty packet, or field for field
// the packet a fresh decode gives — nothing of the previous datagram.
func FuzzDecodePacket(f *testing.F) {
	for _, c := range []Codec{{Float32: true}, {Float32: false}} {
		msg := &GradientMsg{Worker: 3, Step: 41, Grad: tensor.Vector{1.5, -2.25, math.Pi, 0}}
		for _, p := range c.Split(msg, 64) {
			f.Add(c.EncodePacket(&p), c.Float32)
		}
		empty := &GradientMsg{Worker: 0, Step: 0, Grad: tensor.Vector{}}
		for _, p := range c.Split(empty, DefaultMTU) {
			f.Add(c.EncodePacket(&p), c.Float32)
		}
	}
	f.Add([]byte{}, true)
	f.Add([]byte{0xA7, 0x06, 0x6E, 0xA6}, false)             // magic, truncated
	f.Add(bytes.Repeat([]byte{0xFF}, packetHeaderLen), true) // header-sized garbage

	f.Fuzz(func(t *testing.T, data []byte, float32Wire bool) {
		c := Codec{Float32: float32Wire}
		p, err := c.DecodePacket(data)
		used := &Packet{}
		previous := c.EncodePacket(&Packet{Worker: 7, Step: 7, Loss: 7, Dim: 77, Offset: 7, Coords: make(tensor.Vector, 70)})
		if err := c.DecodePacketInto(used, previous); err != nil {
			t.Fatal(err)
		}
		reuseErr := c.DecodePacketInto(used, data)
		if err != nil {
			if p != nil {
				t.Fatal("decoder returned both a packet and an error")
			}
			if reuseErr == nil || reuseErr.Error() != err.Error() {
				t.Fatalf("decode into a used packet: error %v, a fresh decode fails with %v", reuseErr, err)
			}
			if !samePacket(used, &Packet{}) {
				t.Fatalf("a failed decode left %+v in the packet", used)
			}
			return
		}
		if reuseErr != nil || !samePacket(used, p) {
			t.Fatalf("decode into a used packet: %+v (error %v), a fresh decode gives %+v", used, reuseErr, p)
		}
		if p.Offset < 0 || p.Offset+len(p.Coords) > p.Dim {
			t.Fatalf("accepted packet with range [%d,%d) outside dim %d", p.Offset, p.Offset+len(p.Coords), p.Dim)
		}
		re := c.EncodePacket(p)
		if !bytes.Equal(re, data) && !(float32Wire && hasSignallingNaN32(data[packetHeaderLen:])) {
			t.Fatalf("decode->encode not the identity:\n in  %x\n out %x", data, re)
		}
		if again, err := c.DecodePacket(re); err != nil || !samePacket(again, p) {
			t.Fatalf("decode->encode->decode: %+v (error %v), the first decode gave %+v", again, err, p)
		}
		other := Codec{Float32: !float32Wire}
		if _, err := other.DecodePacket(data); !errors.Is(err, ErrWireFormat) {
			t.Fatalf("opposite-width decode: want ErrWireFormat, got %v", err)
		}
	})
}

// FuzzDecodeGradient covers the whole-message framing the TCP path uses,
// under both wire widths, including the cross-width rejection property.
func FuzzDecodeGradient(f *testing.F) {
	for _, c := range []Codec{{Float32: true}, {Float32: false}} {
		f.Add(c.EncodeGradient(&GradientMsg{Worker: 1, Step: 9, Grad: tensor.Vector{0.5, -0.5}}), c.Float32)
		f.Add(c.EncodeGradient(&GradientMsg{Grad: tensor.Vector{}}), c.Float32)
	}
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, float32Wire bool) {
		c := Codec{Float32: float32Wire}
		m, err := c.DecodeGradient(data)
		if err != nil {
			return
		}
		re := c.EncodeGradient(m)
		if !bytes.Equal(re, data) && !(float32Wire && hasSignallingNaN32(data[len(data)-4*len(m.Grad):])) {
			t.Fatalf("decode->encode not the identity:\n in  %x\n out %x", data, re)
		}
		other := Codec{Float32: !float32Wire}
		if _, err := other.DecodeGradient(data); !errors.Is(err, ErrWireFormat) {
			t.Fatalf("opposite-width decode: want ErrWireFormat, got %v", err)
		}
	})
}

// FuzzReassembler feeds arbitrary *sequences* of datagrams through the
// decode→reassemble pipeline — the exact surface a Byzantine worker reaches
// on the UDP path. Single-packet decode fuzzing (FuzzDecodePacket) cannot
// reach the cross-packet state: the conflicting-Dim crash needed two
// individually valid packets sharing a (worker, step) key, which is the
// seeded crasher below. The reassembler must never panic, every completed
// gradient must be self-consistent, and pending state must stay bounded by
// the number of distinct keys offered.
//
// Beside it runs boolReassembler, the per-coordinate oracle the arrival
// bitmap replaced: after every packet both give the same (done, msg), the
// same Missing for its key, Pending and Evictions, and at the end FlushFill
// calls fill on the same coordinates in the same order and returns the same
// gradient, bit for bit.
func FuzzReassembler(f *testing.F) {
	c := Codec{Float32: true}
	// Seed: a legitimate split, interleaved across two workers.
	var legit []byte
	for _, worker := range []int{0, 1} {
		msg := &GradientMsg{Worker: worker, Step: 3, Loss: 0.5, Grad: tensor.Vector{1, 2, 3, 4, 5, 6, 7, 8}}
		for _, p := range c.Split(msg, 64) {
			legit = appendChunk(legit, c.EncodePacket(&p))
		}
	}
	f.Add(legit)
	// Seed: model-tagged (ModelWorkerID) sequences — the worker-side model
	// endpoint path: one complete broadcast, one torn broadcast, and
	// spoofed packets claiming distinct future steps (each used to pin a
	// model-sized partial on the worker with nothing ever evicting it).
	var models []byte
	model := &GradientMsg{Worker: ModelWorkerID, Step: 7, Loss: 0, Grad: tensor.Vector{1, 2, 3, 4, 5, 6, 7, 8}}
	for _, p := range c.Split(model, 64) {
		models = appendChunk(models, c.EncodePacket(&p))
	}
	torn := &GradientMsg{Worker: ModelWorkerID, Step: 8, Grad: tensor.Vector{9, 8, 7, 6, 5, 4, 3, 2}}
	for i, p := range c.Split(torn, 64) {
		if i == 0 {
			continue // the "scheduled drop": first packet never sent
		}
		models = appendChunk(models, c.EncodePacket(&p))
	}
	for step := 100; step < 104; step++ {
		spoof := &Packet{Worker: ModelWorkerID, Step: step, Dim: 4096, Offset: 0, Coords: tensor.Vector{1}}
		models = appendChunk(models, c.EncodePacket(spoof))
	}
	f.Add(models)
	// Seed: the conflicting-Dim crasher — two self-consistent packets, same
	// key, different dims (the second used to index out of range).
	small := &Packet{Worker: 1, Step: 1, Dim: 4, Offset: 0, Coords: tensor.Vector{1, 2}}
	large := &Packet{Worker: 1, Step: 1, Dim: 4096, Offset: 4000, Coords: tensor.Vector{9, 9, 9}}
	f.Add(appendChunk(appendChunk(nil, c.EncodePacket(small)), c.EncodePacket(large)))
	f.Add(appendChunk(appendChunk(nil, c.EncodePacket(large)), c.EncodePacket(small)))
	// Seed: raw garbage chunks.
	f.Add(appendChunk(appendChunk(nil, []byte("garbage")), bytes.Repeat([]byte{0xFF}, packetHeaderLen)))
	// Seeds for the arrival bitmap: ranges straddling 64-coordinate words,
	// a Dim that is not a multiple of 64 and one below it, overlapping and
	// duplicate ranges, gaps on word boundaries left for FlushFill, and
	// conflicting Loss and Dim under one key.
	ranges := func(worker, dim int, loss float64, spans ...[2]int) (out []byte) {
		for _, sp := range spans {
			coords := make(tensor.Vector, sp[1]-sp[0])
			for i := range coords {
				coords[i] = float64(sp[0]+i) + 0.25
			}
			out = appendChunk(out, c.EncodePacket(&Packet{Worker: worker, Step: 5, Loss: loss, Dim: dim, Offset: sp[0], Coords: coords}))
		}
		return out
	}
	f.Add(ranges(0, 200, 1, [2]int{60, 70}, [2]int{0, 60}, [2]int{60, 70}, [2]int{70, 130}, [2]int{127, 200}))
	f.Add(ranges(0, 200, 1, [2]int{0, 63}, [2]int{65, 128}, [2]int{129, 199}, [2]int{0, 63}))
	f.Add(ranges(1, 5, 1, [2]int{1, 3}, [2]int{0, 2}, [2]int{3, 5}, [2]int{2, 4}))
	f.Add(ranges(2, 130, 1, [2]int{64, 128}, [2]int{0, 64}, [2]int{128, 129}))
	f.Add(append(append(ranges(3, 100, 0.5, [2]int{0, 50}), ranges(3, 100, 0.25, [2]int{50, 100})...),
		ranges(3, 70, 0.25, [2]int{0, 64}, [2]int{60, 70})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		asm := NewReassembler(FillNaN, nil)
		asm.SetMaxDim(1 << 16) // the allocation bound itself is under test
		oracle := newBoolReassembler(1 << 16)
		keys := map[[2]int]bool{}
		for len(data) >= 2 {
			n := int(data[0])<<8 | int(data[1])
			data = data[2:]
			if n > len(data) {
				n = len(data)
			}
			chunk := data[:n]
			data = data[n:]
			p, err := c.DecodePacket(chunk)
			if err != nil {
				continue
			}
			keys[[2]int{p.Worker, p.Step}] = true
			msg, done := asm.Offer(p)
			wantMsg, wantDone := oracle.Offer(p)
			if done != wantDone || !sameGradientMsg(msg, wantMsg) {
				t.Fatalf("Offer(%d,%d [%d,%d) of %d) = %v, %v; the oracle gives %v, %v",
					p.Worker, p.Step, p.Offset, p.Offset+len(p.Coords), p.Dim, msg, done, wantMsg, wantDone)
			}
			if done {
				if msg == nil {
					t.Fatal("done with nil message")
				}
				if len(msg.Grad) != p.Dim {
					t.Fatalf("completed gradient dim %d, packet dim %d", len(msg.Grad), p.Dim)
				}
				if msg.Worker != p.Worker || msg.Step != p.Step {
					t.Fatalf("completed gradient key (%d,%d) from packet (%d,%d)",
						msg.Worker, msg.Step, p.Worker, p.Step)
				}
			}
			missing, ok := asm.Missing(p.Worker, p.Step)
			wantMissing, wantOK := oracle.Missing(p.Worker, p.Step)
			if missing != wantMissing || ok != wantOK {
				t.Fatalf("Missing(%d,%d) = %d, %v; the oracle gives %d, %v", p.Worker, p.Step, missing, ok, wantMissing, wantOK)
			}
			if asm.Pending() != len(oracle.pending) || asm.Evictions() != oracle.evictions {
				t.Fatalf("pending %d, evictions %d; the oracle has %d, %d", asm.Pending(), asm.Evictions(), len(oracle.pending), oracle.evictions)
			}
			if asm.Pending() > len(keys) {
				t.Fatalf("pending %d exceeds %d distinct keys", asm.Pending(), len(keys))
			}
		}
		// Every partial must flush cleanly, whatever arrived, filling the
		// same coordinates in the same order as the oracle.
		sorted := slices.SortedFunc(maps.Keys(keys), func(a, b [2]int) int { return cmp.Or(a[0]-b[0], a[1]-b[1]) })
		for _, key := range sorted {
			var got, want []int
			msg, ok := asm.FlushFill(key[0], key[1], func(i int) float64 { got = append(got, i); return float64(-i) })
			wantMsg, wantOK := oracle.FlushFill(key[0], key[1], func(i int) float64 { want = append(want, i); return float64(-i) })
			if ok != wantOK || !sameGradientMsg(msg, wantMsg) || !slices.Equal(got, want) {
				t.Fatalf("FlushFill(%d,%d) filled %v into %v (%v); the oracle fills %v into %v (%v)", key[0], key[1], got, msg, ok, want, wantMsg, wantOK)
			}
		}
		if asm.Pending() != 0 {
			t.Fatalf("%d partials leaked after flushing every key", asm.Pending())
		}
	})
}

// sameGradientMsg reports whether two messages (either possibly nil) carry
// the same key, loss and coordinates bit for bit.
func sameGradientMsg(a, b *GradientMsg) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Worker != b.Worker || a.Step != b.Step || math.Float64bits(a.Loss) != math.Float64bits(b.Loss) || len(a.Grad) != len(b.Grad) {
		return false
	}
	for i := range a.Grad {
		if math.Float64bits(a.Grad[i]) != math.Float64bits(b.Grad[i]) {
			return false
		}
	}
	return true
}

// FuzzSegments walks an arbitrary message under an arbitrary segment size —
// the size comes out of a kernel control message and the message off the
// wire, so neither is trusted. The walk never panics, never yields bytes
// outside the message or a datagram that could grow into its successor, and
// its datagrams concatenate to the message.
func FuzzSegments(f *testing.F) {
	f.Add([]byte("aabbc"), 2)
	f.Add([]byte("aabb"), 2)
	f.Add([]byte("whole"), 5)
	f.Add([]byte("whole"), 0)
	f.Add([]byte("whole"), -3)
	f.Add([]byte("whole"), math.MaxInt32)
	f.Add([]byte{}, 1)
	f.Fuzz(func(t *testing.T, msg []byte, seg int) {
		at := 0
		for rest := msg; len(rest) > 0; {
			var d []byte
			d, rest = nextSegment(rest, seg)
			if len(d) == 0 || at+len(d) > len(msg) || &d[0] != &msg[at] {
				t.Fatalf("segment size %d: a %d-byte datagram at offset %d of a %d-byte message", seg, len(d), at, len(msg))
			}
			if len(rest) > 0 && (cap(d) != len(d) || len(d) != seg) {
				t.Fatalf("segment size %d: a datagram before the last has %d bytes and capacity %d", seg, len(d), cap(d))
			}
			at += len(d)
		}
		if at != len(msg) {
			t.Fatalf("segment size %d: the walk covered %d of %d bytes", seg, at, len(msg))
		}
	})
}

// appendChunk length-prefixes one datagram in the fuzz corpus encoding
// (u16 big-endian length, then the bytes).
func appendChunk(dst, chunk []byte) []byte {
	dst = append(dst, byte(len(chunk)>>8), byte(len(chunk)))
	return append(dst, chunk...)
}

// TestPacketRoundTripAllWidths pins the encode→decode→encode identity on
// structured packets (the property -fuzz explores from arbitrary bytes).
func TestPacketRoundTripAllWidths(t *testing.T) {
	for _, c := range []Codec{{Float32: true}, {Float32: false}} {
		msg := &GradientMsg{Worker: 7, Step: 1 << 30, Grad: tensor.NewVector(301)}
		for i := range msg.Grad {
			msg.Grad[i] = float64(i) * 0.25
		}
		msg.Grad[0] = math.NaN()
		msg.Grad[1] = math.Inf(1)
		for _, p := range c.Split(msg, DefaultMTU) {
			raw := c.EncodePacket(&p)
			got, err := c.DecodePacket(raw)
			if err != nil {
				t.Fatalf("float32=%v: %v", c.Float32, err)
			}
			if got.Worker != p.Worker || got.Step != p.Step || got.Dim != p.Dim || got.Offset != p.Offset {
				t.Fatalf("float32=%v: header changed: %+v vs %+v", c.Float32, got, p)
			}
			if !bytes.Equal(c.EncodePacket(got), raw) {
				t.Fatalf("float32=%v: re-encode differs", c.Float32)
			}
		}
	}
}
