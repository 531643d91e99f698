// Package transport implements the communication layer of the reproduction:
// one binary wire header for model and gradient messages on both transports,
// a reliable TCP transport (the gRPC stand-in) whose frames are whole-message
// datagrams, and the lossyMPI-style UDP transport — gradient chunking into
// self-describing datagrams, deadline reassembly, and the three §3.3 recoup
// policies for lost coordinates. Which
// packets a deployment drops is not decided here: the round engine's plan
// (package ps) schedules loss, on sockets and in-process alike.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"aggregathor/internal/tensor"
)

// Wire format constants.
const (
	// Magic tags every AggregaThor frame and datagram.
	Magic = 0xA66E06A7
	// Version is the current wire version. Version 2 inserted the 8-byte
	// loss metadata field into the gradient frame; version 3 carried the
	// same field through the datagram packet header, so gradients shipped
	// over lossy UDP keep their loss metadata (previously the datagram path
	// silently rebuilt messages with Loss 0); version 4 added the
	// coordinate-width byte to every frame and datagram header, so a codec
	// mismatch between endpoints surfaces as ErrWireFormat instead of a
	// silent 100% "loss" (a float32-encoded packet used to fail the float64
	// receiver's length check and be dropped as malformed); version 5 made
	// the datagram header the only one: a TCP frame is a length prefix and
	// one whole-message datagram. A peer speaking an older version is
	// rejected with a clean version-mismatch error instead of misparsing the
	// frame.
	Version = 5
)

// ErrBadFrame is wrapped by decoders on malformed input.
var ErrBadFrame = errors.New("transport: malformed frame")

// ErrWireFormat is wrapped by decoders when a frame is well-formed but
// carries a different coordinate width than the local codec — the two
// endpoints disagree on wireFormat. It unwraps to ErrBadFrame too, so
// lenient paths that skip malformed Byzantine datagrams keep working, while
// callers that want the mismatch loud can match it specifically.
var ErrWireFormat = fmt.Errorf("%w: coordinate width mismatch", ErrBadFrame)

// Canonical wireFormat axis values (scenario/cluster/core configuration).
const (
	// WireFloat64 is the lossless 8-byte coordinate wire — the default.
	WireFloat64 = "float64"
	// WireFloat32 is the half-width 4-byte coordinate wire (the TensorFlow
	// default the paper ships over its lossyMPI channel).
	WireFloat32 = "float32"
)

// ParseWireFormat maps a wireFormat axis value to its codec. The empty
// string selects the float64 default: lossless, and the width every backend
// shares unless the scenario opts into compression.
func ParseWireFormat(s string) (Codec, error) {
	switch s {
	case "", WireFloat64:
		return Codec{}, nil
	case WireFloat32:
		return Codec{Float32: true}, nil
	default:
		return Codec{}, fmt.Errorf("transport: unknown wire format %q (want %q or %q)",
			s, WireFloat64, WireFloat32)
	}
}

// ParseRecoupPolicy maps a recoup policy name — RecoupPolicy.String's
// spelling — back to the policy.
func ParseRecoupPolicy(name string) (RecoupPolicy, error) {
	for _, p := range []RecoupPolicy{DropGradient, FillNaN, FillRandom} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("transport: unknown recoup policy %q (want drop-gradient|fill-nan|fill-random)", name)
}

// GradientMsg is one worker's gradient submission for one step.
type GradientMsg struct {
	Worker int
	Step   int
	// Loss is the worker's training loss on the mini-batch that produced
	// the gradient — diagnostic metadata the server aggregates into the
	// per-round mean honest loss. It travels at full 8-byte width even on
	// the float32 coordinate wire (it is metadata, like Step).
	Loss float64
	Grad tensor.Vector
}

// ModelMsg is the server's parameter broadcast for one step.
type ModelMsg struct {
	Step   int
	Params tensor.Vector
}

// Codec converts vectors to wire bytes. Float32 halves the wire size (the
// TensorFlow default); Float64 is lossless.
type Codec struct {
	// Float32 selects the 4-byte wire coordinate format.
	Float32 bool
}

// BytesPerCoord returns the wire size of one coordinate.
func (c Codec) BytesPerCoord() int {
	if c.Float32 {
		return 4
	}
	return 8
}

// hostLittleEndian is the package's only platform branch: whether a
// coordinate in memory is already its wire encoding (little-endian IEEE-754).
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// native returns v's own memory when that is its wire encoding — the float64
// wire on a little-endian host. The result aliases v.
func (c Codec) native(v tensor.Vector) ([]byte, bool) {
	if c.Float32 || !hostLittleEndian {
		return nil, false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8), true
}

// float32s views the first n float32 wire coordinates of b in place — their
// memory is their encoding on a little-endian host — at whatever alignment b
// has: float32 holds no pointers, so an unaligned view is sound. An empty
// view is nil: b may then point past the end of its allocation.
func float32s(b []byte, n int) []float32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[:4*n][0])), n)
}

// WireCoords returns v's coordinates in wire encoding: v's own memory where
// that is the encoding (see native) — the result then aliases v and is good
// only until v next changes — and otherwise a rendering into *scratch, which
// grows on first use and serves every later call.
func (c Codec) WireCoords(v tensor.Vector, scratch *[]byte) []byte {
	if b, ok := c.native(v); ok {
		return b
	}
	n := len(v) * c.BytesPerCoord()
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	b := (*scratch)[:n]
	c.putCoords(b, v)
	return b
}

// putCoords encodes v into dst: one copy where the wire encoding is v's
// memory, one tensor.NarrowFloat64 into dst's float32 view on the float32
// wire of a little-endian host, coordinate by coordinate on a big-endian one.
func (c Codec) putCoords(dst []byte, v tensor.Vector) {
	switch b, ok := c.native(v); {
	case ok:
		copy(dst[:len(b)], b)
	case c.Float32 && hostLittleEndian:
		tensor.NarrowFloat64(float32s(dst, len(v)), v)
	default:
		c.putCoordsBytes(dst, v)
	}
}

// putCoordsBytes is the big-endian host's encode, and the oracle the views
// are tested against.
func (c Codec) putCoordsBytes(dst []byte, v tensor.Vector) {
	if c.Float32 {
		for i, x := range v {
			binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(float32(x)))
		}
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(x))
	}
}

// getCoords decodes len(v) wire coordinates: one copy where the wire
// encoding is v's memory, one tensor.WidenFloat32 from src's float32 view on
// the float32 wire of a little-endian host — AVX2 where the CPU has it, four
// coordinates a step, bit-identical to Go's float64(x) — and coordinate by
// coordinate on a big-endian one. A float32 coordinate widens to float64,
// which carries every bit pattern through a later putCoords but one: the
// widening quiets a signalling NaN (sets its top mantissa bit), so
// encode(decode(x)) is x unless x holds a float32 signalling NaN, and
// decode(encode(decode(x))) is decode(x) always. The float64 wire carries
// every bit pattern, NaN payloads included, on both paths.
func (c Codec) getCoords(src []byte, v tensor.Vector) {
	switch b, ok := c.native(v); {
	case ok:
		copy(b, src[:len(b)])
	case c.Float32 && hostLittleEndian:
		tensor.WidenFloat32(v, float32s(src, len(v)))
	default:
		c.getCoordsBytes(src, v)
	}
}

// getCoordsBytes is the big-endian host's decode, and the oracle the views
// are tested against.
func (c Codec) getCoordsBytes(src []byte, v tensor.Vector) {
	if c.Float32 {
		for i := range v {
			v[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:])))
		}
		return
	}
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}
