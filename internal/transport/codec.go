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

func (c Codec) putCoords(dst []byte, v tensor.Vector) {
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
// decode(encode(decode(x))) is decode(x) always.
func (c Codec) getCoords(src []byte, v tensor.Vector) {
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

// EncodeGradient renders a gradient message as a framed byte slice:
// magic u32 | version u8 | type u8 | width u8 | worker u32 | step u64 |
// loss f64 | dim u32 | coords.
func (c Codec) EncodeGradient(m *GradientMsg) []byte {
	buf := make([]byte, 4+1+1+1+4+8+8+4+len(m.Grad)*c.BytesPerCoord())
	binary.LittleEndian.PutUint32(buf[0:], Magic)
	buf[4] = Version
	buf[5] = msgGradient
	buf[6] = byte(c.BytesPerCoord())
	binary.LittleEndian.PutUint32(buf[7:], uint32(m.Worker))
	binary.LittleEndian.PutUint64(buf[11:], uint64(m.Step))
	binary.LittleEndian.PutUint64(buf[19:], math.Float64bits(m.Loss))
	binary.LittleEndian.PutUint32(buf[27:], uint32(len(m.Grad)))
	c.putCoords(buf[31:], m.Grad)
	return buf
}

// DecodeGradient parses EncodeGradient output.
func (c Codec) DecodeGradient(buf []byte) (*GradientMsg, error) {
	if len(buf) < 31 {
		return nil, fmt.Errorf("%w: gradient frame too short (%d bytes)", ErrBadFrame, len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if buf[4] != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, buf[4])
	}
	if buf[5] != msgGradient {
		return nil, fmt.Errorf("%w: not a gradient frame (type %d)", ErrBadFrame, buf[5])
	}
	if err := c.checkWidth(buf[6]); err != nil {
		return nil, err
	}
	dim := int(binary.LittleEndian.Uint32(buf[27:]))
	want := 31 + dim*c.BytesPerCoord()
	if len(buf) != want {
		return nil, fmt.Errorf("%w: gradient frame %d bytes, want %d", ErrBadFrame, len(buf), want)
	}
	m := &GradientMsg{
		Worker: int(binary.LittleEndian.Uint32(buf[7:])),
		Step:   int(binary.LittleEndian.Uint64(buf[11:])),
		Loss:   math.Float64frombits(binary.LittleEndian.Uint64(buf[19:])),
		Grad:   tensor.NewVector(dim),
	}
	c.getCoords(buf[31:], m.Grad)
	return m, nil
}

// EncodeModel renders a model broadcast:
// magic u32 | version u8 | type u8 | width u8 | step u64 | dim u32 | coords.
func (c Codec) EncodeModel(m *ModelMsg) []byte {
	buf := make([]byte, 4+1+1+1+8+4+len(m.Params)*c.BytesPerCoord())
	binary.LittleEndian.PutUint32(buf[0:], Magic)
	buf[4] = Version
	buf[5] = msgModel
	buf[6] = byte(c.BytesPerCoord())
	binary.LittleEndian.PutUint64(buf[7:], uint64(m.Step))
	binary.LittleEndian.PutUint32(buf[15:], uint32(len(m.Params)))
	c.putCoords(buf[19:], m.Params)
	return buf
}

// DecodeModel parses EncodeModel output.
func (c Codec) DecodeModel(buf []byte) (*ModelMsg, error) {
	if len(buf) < 19 {
		return nil, fmt.Errorf("%w: model frame too short (%d bytes)", ErrBadFrame, len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if buf[4] != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, buf[4])
	}
	if buf[5] != msgModel {
		return nil, fmt.Errorf("%w: not a model frame (type %d)", ErrBadFrame, buf[5])
	}
	if err := c.checkWidth(buf[6]); err != nil {
		return nil, err
	}
	dim := int(binary.LittleEndian.Uint32(buf[15:]))
	want := 19 + dim*c.BytesPerCoord()
	if len(buf) != want {
		return nil, fmt.Errorf("%w: model frame %d bytes, want %d", ErrBadFrame, len(buf), want)
	}
	m := &ModelMsg{
		Step:   int(binary.LittleEndian.Uint64(buf[7:])),
		Params: tensor.NewVector(dim),
	}
	c.getCoords(buf[19:], m.Params)
	return m, nil
}
