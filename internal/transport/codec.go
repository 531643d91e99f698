// Package transport implements the communication layer of the reproduction:
// binary wire codecs for model and gradient messages, a reliable TCP
// transport (the gRPC stand-in) and the lossyMPI-style UDP transport — gradient
// chunking into datagrams with self-describing sequence headers, deadline
// reassembly, and the three §3.3 recoup policies for lost coordinates. Which
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
	// receiver's length check and be dropped as malformed). A peer speaking
	// an older version is rejected with a clean version-mismatch error
	// instead of misparsing the frame.
	Version = 4

	msgModel    = 1
	msgGradient = 2
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

// WireName returns the canonical wireFormat axis value for the codec.
func (c Codec) WireName() string {
	if c.Float32 {
		return WireFloat32
	}
	return WireFloat64
}

// checkWidth validates a frame's coordinate-width byte against the codec:
// widths other than 4 or 8 are malformed, a well-formed width that differs
// from the codec's is a wire-format mismatch.
func (c Codec) checkWidth(w byte) error {
	if w != 4 && w != 8 {
		return fmt.Errorf("%w: unknown coordinate width %d", ErrBadFrame, w)
	}
	if int(w) != c.BytesPerCoord() {
		return fmt.Errorf("%w: frame carries %d-byte coords, codec expects %d",
			ErrWireFormat, w, c.BytesPerCoord())
	}
	return nil
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

// hostLittleEndian is the package's only platform branch: whether a float64
// in memory is already its wire encoding (little-endian IEEE-754).
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// native returns v's own memory when that is its wire encoding — the float64
// wire on a little-endian host. The result aliases v.
func (c Codec) native(v tensor.Vector) ([]byte, bool) {
	if c.Float32 || !hostLittleEndian {
		return nil, false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8), true
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
	c.putCoordsPortable(b, v)
	return b
}

// putCoords encodes v into dst: one copy where the wire encoding is v's
// memory, coordinate by coordinate otherwise.
func (c Codec) putCoords(dst []byte, v tensor.Vector) {
	if b, ok := c.native(v); ok {
		copy(dst[:len(b)], b)
		return
	}
	c.putCoordsPortable(dst, v)
}

func (c Codec) putCoordsPortable(dst []byte, v tensor.Vector) {
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

// getCoords decodes len(v) wire coordinates. A float32 coordinate widens to
// float64, which carries every bit pattern through a later putCoords but
// one: the widening quiets a signalling NaN (sets its top mantissa bit), so
// encode(decode(x)) is x unless x holds a float32 signalling NaN, and
// decode(encode(decode(x))) is decode(x) always. The float64 wire carries
// every bit pattern, NaN payloads included, on both paths.
func (c Codec) getCoords(src []byte, v tensor.Vector) {
	if b, ok := c.native(v); ok {
		copy(b, src[:len(b)])
		return
	}
	c.getCoordsPortable(src, v)
}

func (c Codec) getCoordsPortable(src []byte, v tensor.Vector) {
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

// Frame layout: a fixed header, then dim coordinates.
//
//	gradient: magic u32 | version u8 | type u8 | width u8 | worker u32 |
//	          step u64 | loss f64 | dim u32 | coords
//	model:    magic u32 | version u8 | type u8 | width u8 | step u64 |
//	          dim u32 | coords
const (
	gradientHeaderLen = 4 + 1 + 1 + 1 + 4 + 8 + 8 + 4
	modelHeaderLen    = 4 + 1 + 1 + 1 + 8 + 4
)

// frameHeader is a frame's fixed part; a model frame has no worker or loss.
type frameHeader struct {
	worker, step, dim int
	loss              float64
}

// frameKind names a frame type and gives its fixed header length.
func frameKind(typ byte) (name string, headerLen int) {
	if typ == msgGradient {
		return "gradient", gradientHeaderLen
	}
	return "model", modelHeaderLen
}

// putFrameHeader writes the fixed header of a typ frame into dst.
func (c Codec) putFrameHeader(dst []byte, typ byte, h frameHeader) {
	binary.LittleEndian.PutUint32(dst[0:], Magic)
	dst[4] = Version
	dst[5] = typ
	dst[6] = byte(c.BytesPerCoord())
	at := 7
	if typ == msgGradient {
		binary.LittleEndian.PutUint32(dst[at:], uint32(h.worker))
		at += 4
	}
	binary.LittleEndian.PutUint64(dst[at:], uint64(h.step))
	at += 8
	if typ == msgGradient {
		binary.LittleEndian.PutUint64(dst[at:], math.Float64bits(h.loss))
		at += 8
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(h.dim))
}

// parseFrameHeader is the one place that decides what a well-formed frame
// is, for a whole frame in memory (Decode*) and for a stream that has read
// only this much of it (TCPConn): frameLen is the frame's total length, hdr
// its first bytes — the whole fixed header unless frameLen is shorter.
// expectDim > 0 pins the coordinate count. It runs before anything dim-sized
// exists, so a forged header costs nothing but its sender's connection.
func (c Codec) parseFrameHeader(typ byte, hdr []byte, frameLen, expectDim int) (frameHeader, error) {
	name, headerLen := frameKind(typ)
	if frameLen < headerLen {
		return frameHeader{}, fmt.Errorf("%w: %s frame too short (%d bytes)", ErrBadFrame, name, frameLen)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != Magic {
		return frameHeader{}, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if hdr[4] != Version {
		return frameHeader{}, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, hdr[4])
	}
	if hdr[5] != typ {
		return frameHeader{}, fmt.Errorf("%w: not a %s frame (type %d)", ErrBadFrame, name, hdr[5])
	}
	if err := c.checkWidth(hdr[6]); err != nil {
		return frameHeader{}, err
	}
	var h frameHeader
	at := 7
	if typ == msgGradient {
		h.worker = int(binary.LittleEndian.Uint32(hdr[at:]))
		at += 4
	}
	h.step = int(binary.LittleEndian.Uint64(hdr[at:]))
	at += 8
	if typ == msgGradient {
		h.loss = math.Float64frombits(binary.LittleEndian.Uint64(hdr[at:]))
		at += 8
	}
	h.dim = int(binary.LittleEndian.Uint32(hdr[at:]))
	if want := headerLen + h.dim*c.BytesPerCoord(); frameLen != want {
		return frameHeader{}, fmt.Errorf("%w: %s frame %d bytes, want %d", ErrBadFrame, name, frameLen, want)
	}
	if expectDim > 0 && h.dim != expectDim {
		return frameHeader{}, fmt.Errorf("%w: %s frame carries %d coordinates, this endpoint's model has %d",
			ErrBadFrame, name, h.dim, expectDim)
	}
	return h, nil
}

// EncodeGradient renders a gradient message as a framed byte slice.
func (c Codec) EncodeGradient(m *GradientMsg) []byte {
	buf := make([]byte, gradientHeaderLen+len(m.Grad)*c.BytesPerCoord())
	c.putFrameHeader(buf, msgGradient, frameHeader{worker: m.Worker, step: m.Step, loss: m.Loss, dim: len(m.Grad)})
	c.putCoords(buf[gradientHeaderLen:], m.Grad)
	return buf
}

// DecodeGradient parses EncodeGradient output.
func (c Codec) DecodeGradient(buf []byte) (*GradientMsg, error) {
	h, err := c.parseFrameHeader(msgGradient, buf, len(buf), 0)
	if err != nil {
		return nil, err
	}
	m := &GradientMsg{Worker: h.worker, Step: h.step, Loss: h.loss, Grad: tensor.NewVector(h.dim)}
	c.getCoords(buf[gradientHeaderLen:], m.Grad)
	return m, nil
}

// EncodeModel renders a model broadcast as a framed byte slice.
func (c Codec) EncodeModel(m *ModelMsg) []byte {
	buf := make([]byte, modelHeaderLen+len(m.Params)*c.BytesPerCoord())
	c.putFrameHeader(buf, msgModel, frameHeader{step: m.Step, dim: len(m.Params)})
	c.putCoords(buf[modelHeaderLen:], m.Params)
	return buf
}

// DecodeModel parses EncodeModel output.
func (c Codec) DecodeModel(buf []byte) (*ModelMsg, error) {
	h, err := c.parseFrameHeader(msgModel, buf, len(buf), 0)
	if err != nil {
		return nil, err
	}
	m := &ModelMsg{Step: h.step, Params: tensor.NewVector(h.dim)}
	c.getCoords(buf[modelHeaderLen:], m.Params)
	return m, nil
}
