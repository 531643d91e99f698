package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"aggregathor/internal/tensor"
)

// prefixed puts the TCP length prefix in front of a frame.
func prefixed(frame []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(frame))), frame...)
}

// pipeConns returns a TCPConn over each end of an in-memory pipe.
func pipeConns(c Codec) (a, b *TCPConn) {
	x, y := net.Pipe()
	return &TCPConn{conn: x, codec: c}, &TCPConn{conn: y, codec: c}
}

// sameBits reports whether two vectors hold the same coordinates bit for
// bit (NaN payloads included).
func sameBits(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// errClass names which of the three outcomes a failed receive or decode is.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrWireFormat):
		return "wire-format"
	case errors.Is(err, ErrBadFrame):
		return "bad-frame"
	default:
		return "read-error"
	}
}

// FuzzTCPFrameStream feeds arbitrary bytes — a length prefix and whatever
// follows it — through a pipe to the stream reader, under both widths, for
// both frame types, pinned to a dimension or not; a model is received into a
// destination of the pinned dimension (none pinned: an empty one). The reader
// must agree with the whole-frame decoder on the same bytes: the same message
// bit for bit, or the same class of error (ErrWireFormat, ErrBadFrame), or a
// read error exactly when the stream ends inside a frame whose header is
// good. It must never panic, a refused header must leave a model's
// destination untouched, and what it allocates is bounded by what it was
// entitled to receive: nothing coordinate-sized for a model, for a gradient
// the pinned dimension, or on an unpinned connection the dimension the length
// prefix pays for — never a forged header's claim.
func FuzzTCPFrameStream(f *testing.F) {
	for _, c := range []Codec{{Float32: true}, {Float32: false}} {
		// The FuzzDecodeGradient seeds, as stream bytes.
		for _, grad := range []tensor.Vector{{0.5, -0.5}, {}} {
			frame := c.EncodeGradient(&GradientMsg{Worker: 1, Step: 9, Grad: grad})
			f.Add(prefixed(frame), c.Float32, false, uint8(len(grad)))
			f.Add(prefixed(frame), c.Float32, false, uint8(0))
			f.Add(prefixed(frame), c.Float32, false, uint8(len(grad)+1))    // pinned to another dimension
			f.Add(prefixed(frame)[:len(frame)], c.Float32, false, uint8(0)) // cut short
			model := c.EncodeModel(&ModelMsg{Step: 9, Params: grad})
			f.Add(prefixed(model), c.Float32, true, uint8(len(grad)))
			f.Add(prefixed(model), c.Float32, true, uint8(len(grad)+1))              // a destination of another dimension
			f.Add(prefixed(model)[:len(model)+2], c.Float32, true, uint8(len(grad))) // cut short, mid-body when there is one
			f.Add(prefixed(model), c.Float32, false, uint8(0))                       // wrong type
		}
	}
	f.Add([]byte{}, true, false, uint8(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F}, false, true, uint8(0))    // prefix over the frame bound
	f.Add([]byte{0x00, 0x00, 0x00, 0x40, 1}, false, true, uint8(3)) // 1 GiB claimed, one byte sent
	// A forged header: 1 MiB of coordinates claimed, consistently, by a
	// frame that then ends — on a connection pinned to 2.
	forged := Codec{}.EncodeGradient(&GradientMsg{Grad: tensor.Vector{}})
	binary.LittleEndian.PutUint32(forged[gradientHeaderLen-4:], 1<<17)
	forged = append(binary.LittleEndian.AppendUint32(nil, uint32(gradientHeaderLen+8<<17)), forged...)
	f.Add(forged, false, false, uint8(2))

	f.Fuzz(func(t *testing.T, stream []byte, float32Wire, model bool, pin uint8) {
		c := Codec{Float32: float32Wire}
		typ, headerLen := byte(msgGradient), gradientHeaderLen
		if model {
			typ, headerLen = msgModel, modelHeaderLen
		}

		// The oracle: the whole-frame decoder on the frame the prefix
		// delimits, zero-extended when the stream ends early (a header
		// verdict does not read the body, so the padding cannot change it).
		want, entitled := "read-error", 0
		var wantStep int
		var wantCoords tensor.Vector
		if len(stream) >= prefixLen {
			n := int(binary.LittleEndian.Uint32(stream))
			rest := stream[prefixLen:]
			switch {
			case n > maxFrameBytes:
				want = "bad-frame"
			case n > 1<<16:
				if pin == 0 && !model {
					t.Skip("an unpinned connection may allocate what a large prefix pays for; not in a fuzz worker")
				}
				// Pinned to ≤ 255 coordinates — a model by its destination
				// — so no such frame is well-formed; which error depends on
				// the header alone.
				if len(rest) >= headerLen {
					_, err := c.parseFrameHeader(typ, rest, n, int(pin))
					if want = errClass(err); err == nil {
						want = "bad-frame" // only an unpinned model header gets this far
					}
				}
			case len(rest) >= min(n, headerLen):
				frame := make([]byte, n)
				copy(frame, rest)
				var err error
				if model {
					var m *ModelMsg
					if m, err = c.DecodeModel(frame); err == nil {
						wantStep, wantCoords = m.Step, m.Params
					}
				} else {
					var m *GradientMsg
					if m, err = c.DecodeGradient(frame); err == nil {
						wantStep, wantCoords = m.Step, m.Grad
					}
				}
				switch {
				case err != nil:
					want = errClass(err)
				case (pin > 0 || model) && len(wantCoords) != int(pin):
					want = "bad-frame"
				case len(rest) >= n:
					want = "ok"
				}
			}
			if n >= headerLen && n <= maxFrameBytes {
				entitled = (n - headerLen) / c.BytesPerCoord()
			}
		}
		if pin > 0 {
			entitled = int(pin)
		}
		if model {
			entitled = 0
		}

		recv, send := pipeConns(c)
		recv.expectDim = int(pin)
		written := make(chan struct{})
		go func() {
			defer close(written)
			send.conn.Write(stream) // fails once the reader has hung up: expected
			send.Close()
		}()
		const untouched = -12345.5
		dst := tensor.NewVector(int(pin))
		dst.Fill(untouched)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var gotStep int
		var gotCoords tensor.Vector
		var err error
		if model {
			gotStep, err = recv.RecvModel(dst)
			gotCoords = dst
		} else {
			var m *GradientMsg
			if m, err = recv.RecvGradient(); err == nil {
				gotStep, gotCoords = m.Step, m.Grad
			}
		}
		runtime.ReadMemStats(&after)
		recv.Close()
		<-written

		if got := errClass(err); got != want {
			t.Fatalf("stream reader: %s (%v), the frame decoder on the same bytes: %s", got, err, want)
		}
		if err == nil && (gotStep != wantStep || !sameBits(gotCoords, wantCoords)) {
			t.Fatalf("stream reader: step %d coords %v, the frame decoder: step %d coords %v", gotStep, gotCoords, wantStep, wantCoords)
		}
		if want == "bad-frame" || want == "wire-format" {
			for i, x := range dst {
				if x != untouched {
					t.Fatalf("a frame refused at its header (%v) wrote coordinate %d of the destination", err, i)
				}
			}
		}
		// The gradient's vector, one conversion chunk, and room for the
		// message, the error and the pipe's own bookkeeping.
		if allocated, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*entitled+chunkBytes+16<<10); allocated > bound {
			t.Fatalf("receive allocated %d bytes; entitled to %d coordinates, so at most %d", allocated, entitled, bound)
		}
	})
}

// portableCase is one vector the chunked path must carry: sizes around the
// chunk boundary, and the bit patterns a conversion could disturb.
func portableCases(c Codec) map[string]tensor.Vector {
	per := chunkBytes / c.BytesPerCoord()
	ramp := func(d int) tensor.Vector {
		v := tensor.NewVector(d)
		for i := range v {
			v[i] = float64(i)*0.25 - 3
		}
		return v
	}
	return map[string]tensor.Vector{
		"empty":            {},
		"one":              {math.Pi},
		"one chunk":        ramp(per),
		"chunks+remainder": ramp(2*per + 5),
		"specials": {math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64,
			math.Float64frombits(0x7ff8000000000001),  // quiet NaN with a payload
			math.Float64frombits(0x7ff0000000000001),  // signalling NaN
			math.Float64frombits(0xfff7ffffffffffff)}, // negative signalling NaN, full payload
	}
}

// TestTCPPortablePathMatchesCodec drives the chunked send and receive — the
// path a big-endian host or the float32 wire takes — directly, on this
// little-endian host, for both widths: frames must be byte-identical to
// Codec.EncodeGradient / EncodeModel (which take the bulk float64 path
// here, so this is also bulk ≡ per-coordinate), and what comes back must be
// the whole-frame decoder's vector bit for bit, NaN payloads included.
func TestTCPPortablePathMatchesCodec(t *testing.T) {
	for _, c := range []Codec{{}, {Float32: true}} {
		for name, v := range portableCases(c) {
			for _, typ := range []byte{msgGradient, msgModel} {
				kind, _ := frameKind(typ)
				h := frameHeader{step: 1 << 40, dim: len(v)}
				wantFrame := c.EncodeModel(&ModelMsg{Step: h.step, Params: v})
				wantCoords := v
				if typ == msgGradient {
					h.worker, h.loss = 17, -0.125
					wantFrame = c.EncodeGradient(&GradientMsg{Worker: h.worker, Step: h.step, Loss: h.loss, Grad: v})
				}
				if c.Float32 {
					m, err := c.DecodeModel(c.EncodeModel(&ModelMsg{Params: v}))
					if err != nil {
						t.Fatal(err)
					}
					wantCoords = m.Params
				}

				send, recv := pipeConns(c)
				sent := make(chan error, 1)
				go func() {
					sent <- send.sendChunked(send.open(typ, h), v)
					send.Close()
				}()
				// Read the stream twice over: raw, for the bytes, and
				// through the chunked receive.
				var raw bytes.Buffer
				recv.conn = teeConn{recv.conn, &raw}
				got, err := recv.recvHeader(typ)
				if err != nil {
					t.Fatalf("float32=%v %s %s: header: %v", c.Float32, kind, name, err)
				}
				coords := tensor.NewVector(got.dim)
				if err := recv.recvChunked(coords); err != nil {
					t.Fatalf("float32=%v %s %s: coordinates: %v", c.Float32, kind, name, err)
				}
				if err := <-sent; err != nil {
					t.Fatalf("float32=%v %s %s: send: %v", c.Float32, kind, name, err)
				}
				if !bytes.Equal(raw.Bytes(), prefixed(wantFrame)) {
					t.Fatalf("float32=%v %s %s: chunked send wrote %d bytes that are not the prefixed Encode frame (%d bytes)",
						c.Float32, kind, name, raw.Len(), prefixLen+len(wantFrame))
				}
				if got != h || !sameBits(coords, wantCoords) {
					t.Fatalf("float32=%v %s %s: chunked receive read header %+v and coordinates that differ from the frame decoder's (header %+v)",
						c.Float32, kind, name, got, h)
				}
				if cap(send.wchunk) > chunkBytes || cap(recv.rchunk) > chunkBytes {
					t.Fatalf("float32=%v %s %s: conversion chunks grew to %d / %d bytes, bound %d",
						c.Float32, kind, name, cap(send.wchunk), cap(recv.rchunk), chunkBytes)
				}
				recv.Close()
			}
		}
	}
}

// teeConn copies everything read from the connection into w.
type teeConn struct {
	net.Conn
	w io.Writer
}

func (t teeConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	t.w.Write(p[:n])
	return n, err
}

// TestTCPStreamQuietsSignallingNaN32 pins that the stream path applies the
// codec's one canonicalisation and no other — the float32 signalling NaN of
// TestPacketCodecQuietsSignallingNaN32 decodes to the same quiet NaN and
// re-encodes as it — on the whole-frame decoder and the stream alike.
func TestTCPStreamQuietsSignallingNaN32(t *testing.T) {
	c := Codec{Float32: true}
	frame := c.EncodeGradient(&GradientMsg{Worker: 1, Step: 2, Grad: tensor.Vector{0}})
	binary.LittleEndian.PutUint32(frame[gradientHeaderLen:], 0x7f800001)
	raw, recv := pipeConns(c)
	go func() {
		raw.conn.Write(prefixed(frame))
		raw.Close()
	}()
	m, err := recv.RecvGradient()
	if err != nil {
		t.Fatal(err)
	}
	recv.Close()
	if got, want := math.Float64bits(m.Grad[0]), uint64(0x7ff8000020000000); got != want {
		t.Fatalf("stream decoded %#x, want the quiet NaN %#x", got, want)
	}
	send, sink := pipeConns(c)
	go func() {
		send.SendGradient(m)
		send.Close()
	}()
	re, err := io.ReadAll(sink.conn)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(re[prefixLen+gradientHeaderLen:]); got != 0x7fc00001 {
		t.Fatalf("stream re-encoded %#x, want the quiet NaN 0x7fc00001", got)
	}
}

// TestTCPTruncatedBodyIsAReadError cuts a frame off mid-body on a real
// socket, on the native and on the chunked receive: the reader loop a
// cluster runs per connection gets a read error (not a framing verdict — the
// header was good), ends, and leaves no goroutine behind; the first, whole
// frame on the same connection is delivered.
func TestTCPTruncatedBodyIsAReadError(t *testing.T) {
	for _, c := range []Codec{{}, {Float32: true}} {
		ln, err := ListenTCP("127.0.0.1:0", c)
		if err != nil {
			t.Fatal(err)
		}
		baseline := runtime.NumGoroutine()
		peer, err := net.Dial("tcp", ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		const d = 3 * chunkBytes / 4 // several chunks on the float32 wire
		conn.SetExpectDim(d)
		frame := prefixed(c.EncodeGradient(&GradientMsg{Worker: 4, Step: 6, Grad: tensor.NewVector(d)}))
		delivered, readerErr := 0, make(chan error, 1)
		go func() {
			for {
				if _, err := conn.RecvGradient(); err != nil {
					readerErr <- err
					return
				}
				delivered++
			}
		}()
		if _, err := peer.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := peer.Write(frame[:len(frame)/2]); err != nil {
			t.Fatal(err)
		}
		peer.Close()
		select {
		case err := <-readerErr:
			if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrBadFrame) {
				t.Fatalf("float32=%v: truncated body surfaced as %v, want a read error wrapping io.ErrUnexpectedEOF", c.Float32, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("float32=%v: the reader is still waiting on a connection its peer closed mid-frame", c.Float32)
		}
		if delivered != 1 {
			t.Fatalf("float32=%v: %d frames delivered before the truncated one, want 1", c.Float32, delivered)
		}
		conn.Close()
		ln.Close()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("float32=%v: %d goroutines, %d before the connection: the truncated frame left one behind",
					c.Float32, runtime.NumGoroutine(), baseline)
			}
		}
	}
}

// TestTCPRecvModelWrongDimension: a broadcast that is not the destination's
// dimension is ErrBadFrame at its header — pinned connection or not — with no
// body byte read and the destination untouched.
func TestTCPRecvModelWrongDimension(t *testing.T) {
	for _, c := range []Codec{{}, {Float32: true}} {
		for _, pin := range []int{0, 5} {
			send, recv := pipeConns(c)
			recv.SetExpectDim(pin)
			frame := prefixed(c.EncodeModel(&ModelMsg{Step: 3, Params: tensor.NewVector(7)}))
			wrote := make(chan int, 1)
			go func() {
				n, _ := send.conn.Write(frame) // ends short when the reader hangs up
				wrote <- n
			}()
			dst := tensor.Vector{1, 2, 3, 4, 5}
			_, err := recv.RecvModel(dst)
			recv.Close()
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("float32=%v pin=%d: a 7-coordinate model into 5 surfaced as %v, want ErrBadFrame", c.Float32, pin, err)
			}
			if n := <-wrote; n > prefixLen+modelHeaderLen {
				t.Fatalf("float32=%v pin=%d: the reader took %d bytes, the header ends at %d", c.Float32, pin, n, prefixLen+modelHeaderLen)
			}
			if !sameBits(dst, tensor.Vector{1, 2, 3, 4, 5}) {
				t.Fatalf("float32=%v pin=%d: the refused frame wrote the destination: %v", c.Float32, pin, dst)
			}
			send.Close()
		}
	}
}

// TestTCPModelCutMidBodyEndsTheWorker runs a TCP worker's loop — receive a
// broadcast into the replica's store, answer with a gradient — against a
// server that sends one whole broadcast and half of the next: the second
// receive is a read error (the header was good) that may have torn the
// store, so the loop ends there, and the one gradient the worker wrote is the
// whole model's.
func TestTCPModelCutMidBodyEndsTheWorker(t *testing.T) {
	for _, c := range []Codec{{}, {Float32: true}} {
		ln, err := ListenTCP("127.0.0.1:0", c)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := net.Dial("tcp", ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		const d = 3 * chunkBytes / 4
		conn.SetExpectDim(d)
		workerErr := make(chan error, 1)
		go func() {
			store := tensor.NewVector(d)
			for {
				step, err := conn.RecvModel(store)
				if err != nil {
					workerErr <- err
					return
				}
				if err := conn.SendGradient(&GradientMsg{Worker: 1, Step: step, Grad: store}); err != nil {
					workerErr <- err
					return
				}
			}
		}()
		params := tensor.NewVector(d)
		params.Fill(0.5)
		frame := prefixed(c.EncodeModel(&ModelMsg{Step: 8, Params: params}))
		if _, err := peer.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := peer.Write(frame[:len(frame)/2]); err != nil {
			t.Fatal(err)
		}
		if err := peer.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-workerErr:
			if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrBadFrame) {
				t.Fatalf("float32=%v: the cut broadcast surfaced as %v, want a read error wrapping io.ErrUnexpectedEOF", c.Float32, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("float32=%v: the worker is still waiting on a broadcast its server cut mid-body", c.Float32)
		}
		conn.Close()
		submitted, err := io.ReadAll(peer)
		if err != nil {
			t.Fatal(err)
		}
		want := prefixed(c.EncodeGradient(&GradientMsg{Worker: 1, Step: 8, Grad: params}))
		if !bytes.Equal(submitted, want) {
			t.Fatalf("float32=%v: the worker wrote %d bytes, want the one %d-byte gradient on the whole broadcast", c.Float32, len(submitted), len(want))
		}
		peer.Close()
		ln.Close()
	}
}
