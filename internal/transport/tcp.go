package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"aggregathor/internal/tensor"
)

const (
	// maxFrameBytes bounds a single TCP frame (1 GiB) so a malicious peer
	// cannot force an arbitrary allocation with a forged length prefix.
	maxFrameBytes = 1 << 30
	// prefixLen is the u32 little-endian frame length before every frame.
	prefixLen = 4
	// chunkBytes bounds the per-direction buffer coordinates are converted
	// through when the wire encoding is not the vector's own memory.
	chunkBytes = 64 << 10
)

// TCPConn is a reliable, length-prefixed message connection — the stand-in
// for TensorFlow's gRPC channel. Each frame is a u32 little-endian length
// followed by one whole-message datagram: the packet header with offset 0 and
// count = dim, then every coordinate. A model broadcast is tagged
// ModelWorkerID with loss 0, as on the datagram path. Frames stream: nothing
// frame-sized is rendered on the way out, and on the way in the header is
// validated before anything coordinate-sized exists and the coordinates land
// in the vector they are for — a gradient message's own, a replica's
// parameter store. One
// goroutine may send while another receives; each direction belongs to one
// goroutine at a time. Any error is terminal: the stream is not
// resynchronised after a frame it refused.
type TCPConn struct {
	conn      net.Conn
	codec     Codec
	expectDim int

	// Send side: prefix and header, the vector handed to the vectored write
	// (header, body) and the conversion chunk.
	whdr   [prefixLen + packetHeaderLen]byte
	wvec   [2][]byte
	wbufs  net.Buffers
	wchunk []byte
	// Receive side: prefix and header, and the conversion chunk.
	rhdr   [prefixLen + packetHeaderLen]byte
	rchunk []byte
}

// DialTCP connects to a listening peer.
func DialTCP(addr string, codec Codec) (*TCPConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return &TCPConn{conn: conn, codec: codec}, nil
}

// TCPListener accepts TCPConn peers.
type TCPListener struct {
	ln    net.Listener
	codec Codec
}

// ListenTCP starts a listener on addr (use "127.0.0.1:0" for tests).
func ListenTCP(addr string, codec Codec) (*TCPListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &TCPListener{ln: ln, codec: codec}, nil
}

// Addr returns the bound address.
func (l *TCPListener) Addr() string { return l.ln.Addr().String() }

// Accept waits for the next peer.
func (l *TCPListener) Accept() (*TCPConn, error) {
	conn, err := l.ln.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return &TCPConn{conn: conn, codec: l.codec}, nil
}

// Close stops the listener.
func (l *TCPListener) Close() error { return l.ln.Close() }

// SetExpectDim pins the coordinate count of every frame received from now
// on (d > 0): a frame of any other dimension is ErrBadFrame at its header,
// before its body is allocated or read. An unpinned connection takes any
// dimension the frame length bound admits.
func (c *TCPConn) SetExpectDim(d int) { c.expectDim = d }

// open puts the opening of a whole-message frame with h's metadata — length
// prefix and header — in c.whdr and returns it.
func (c *TCPConn) open(h Packet) []byte {
	binary.LittleEndian.PutUint32(c.whdr[:], uint32(packetHeaderLen+h.Dim*c.codec.BytesPerCoord()))
	c.codec.putHeader(c.whdr[prefixLen:], &h, h.Dim)
	return c.whdr[:]
}

// send writes an opened frame's coordinates behind its opening: where their
// wire encoding is v's memory, in one vectored write with nothing rendered.
func (c *TCPConn) send(open []byte, v tensor.Vector) error {
	if body, ok := c.codec.native(v); ok {
		return c.writev(open, body)
	}
	return c.sendChunked(open, v)
}

// sendChunked is the send of a vector whose memory is not its wire encoding
// (the float32 wire, a big-endian host): coordinates are rendered through
// c.wchunk, the first chunk riding the vectored write that carries the
// opening.
func (c *TCPConn) sendChunked(open []byte, v tensor.Vector) error {
	w := c.codec.BytesPerCoord()
	if need := min(len(v)*w, chunkBytes); cap(c.wchunk) < need {
		c.wchunk = make([]byte, need)
	}
	for {
		k := min(len(v), chunkBytes/w)
		chunk := c.wchunk[:k*w]
		c.codec.putCoords(chunk, v[:k])
		if err := c.writev(open, chunk); err != nil {
			return err
		}
		open, v = nil, v[k:]
		if len(v) == 0 {
			return nil
		}
	}
}

// writev puts open and body on the wire in one write — vectored when there
// are both, so a frame never starts with a 4-byte segment of its own under
// TCP_NODELAY.
func (c *TCPConn) writev(open, body []byte) error {
	var err error
	switch {
	case len(body) == 0:
		_, err = c.conn.Write(open)
	case len(open) == 0:
		_, err = c.conn.Write(body)
	default:
		c.wvec = [2][]byte{open, body}
		c.wbufs = c.wvec[:]
		_, err = c.wbufs.WriteTo(c.conn)
		c.wvec = [2][]byte{} // keep no reference to a borrowed body
	}
	if err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// recvHeader reads the length prefix and the header of a frame into c.rhdr
// and validates them — Codec.parseHeader, then what a stream adds: a whole
// message, a model broadcast's tag when model is set, the pinned dimension.
// Only the frame's coordinates are unread when it returns. One read usually
// brings prefix and header: it waits for the prefix alone, and the header is
// topped up to the frame's own length, so it blocks for no byte the frame
// does not hold. The only bytes it can take past the frame follow a frame
// shorter than its header, which is ErrBadFrame and ends the stream anyway.
func (c *TCPConn) recvHeader(model bool) (Packet, error) {
	got, err := io.ReadAtLeast(c.conn, c.rhdr[:], prefixLen)
	if err != nil {
		return Packet{}, fmt.Errorf("transport: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(c.rhdr[:])
	if n > maxFrameBytes {
		return Packet{}, fmt.Errorf("%w: frame length %d exceeds limit", ErrBadFrame, n)
	}
	end := prefixLen + min(int(n), packetHeaderLen)
	if got < end {
		if _, err := io.ReadFull(c.conn, c.rhdr[got:end]); err != nil {
			return Packet{}, fmt.Errorf("transport: read frame header: %w", err)
		}
	}
	h, count, err := c.codec.parseHeader(c.rhdr[prefixLen:end], int(n))
	switch {
	case err != nil:
		return Packet{}, err
	case h.Offset != 0 || count != h.Dim:
		return Packet{}, fmt.Errorf("%w: frame carries coordinates [%d,%d) of %d, not a whole message",
			ErrBadFrame, h.Offset, h.Offset+count, h.Dim)
	case model && !modelTagged(&h):
		return Packet{}, fmt.Errorf("%w: not a model frame (worker %d, loss %v)", ErrBadFrame, h.Worker, h.Loss)
	case c.expectDim > 0 && h.Dim != c.expectDim:
		return Packet{}, fmt.Errorf("%w: frame carries %d coordinates, this endpoint's model has %d",
			ErrBadFrame, h.Dim, c.expectDim)
	}
	return h, nil
}

// recvCoords reads a frame's coordinates into v: straight into v's memory
// where that is the wire encoding, otherwise chunk by chunk through c.rchunk.
func (c *TCPConn) recvCoords(v tensor.Vector) error {
	if body, ok := c.codec.native(v); ok {
		if _, err := io.ReadFull(c.conn, body); err != nil {
			return fmt.Errorf("transport: read frame body: %w", err)
		}
		return nil
	}
	return c.recvChunked(v)
}

// recvChunked is sendChunked's receive: chunk by chunk through c.rchunk.
func (c *TCPConn) recvChunked(v tensor.Vector) error {
	w := c.codec.BytesPerCoord()
	if need := min(len(v)*w, chunkBytes); cap(c.rchunk) < need {
		c.rchunk = make([]byte, need)
	}
	for len(v) > 0 {
		k := min(len(v), chunkBytes/w)
		chunk := c.rchunk[:k*w]
		if _, err := io.ReadFull(c.conn, chunk); err != nil {
			return fmt.Errorf("transport: read frame body: %w", err)
		}
		c.codec.getCoords(chunk, v[:k])
		v = v[k:]
	}
	return nil
}

// SendGradient writes one gradient message.
func (c *TCPConn) SendGradient(m *GradientMsg) error {
	return c.send(c.open(Packet{Worker: m.Worker, Step: m.Step, Loss: m.Loss, Dim: len(m.Grad)}), m.Grad)
}

// RecvGradient reads one gradient message into a vector of its own.
func (c *TCPConn) RecvGradient() (*GradientMsg, error) {
	m := &GradientMsg{}
	if err := c.RecvGradientInto(m, tensor.NewVector); err != nil {
		return nil, err
	}
	return m, nil
}

// RecvGradientInto reads one gradient message into m. The destination is
// chosen only once the header has been validated: m.Grad is dst(dim), which
// must return a vector of the frame's dim coordinates, and the coordinates
// are read straight into it. Nothing is allocated here, so a caller that
// hands out a vector it keeps receives without allocating. On an error
// before dst is called m.Grad is nil; after, m.Grad holds what dst returned,
// possibly torn.
func (c *TCPConn) RecvGradientInto(m *GradientMsg, dst func(dim int) tensor.Vector) error {
	h, err := c.recvHeader(false)
	if err != nil {
		*m = GradientMsg{}
		return err
	}
	*m = GradientMsg{Worker: h.Worker, Step: h.Step, Loss: h.Loss, Grad: dst(h.Dim)}
	return c.recvCoords(m.Grad)
}

// SendModelCoords writes a model broadcast whose parameters
// Codec.WireCoords already put in wire encoding under this connection's
// codec. coords is only read, so a broadcast renders (or borrows) them once
// and every connection writes the same bytes.
func (c *TCPConn) SendModelCoords(step int, coords []byte) error {
	return c.writev(c.open(Packet{Worker: ModelWorkerID, Step: step, Dim: len(coords) / c.codec.BytesPerCoord()}), coords)
}

// RecvModel reads one model broadcast into dst — a replica's own parameter
// store — and returns its step. A frame whose dimension is not len(dst) is
// ErrBadFrame at the header, before a body byte is read. A body read error
// leaves dst torn — part new model, part old — and, like every error here,
// the connection dead: the caller must not train on dst afterwards.
func (c *TCPConn) RecvModel(dst tensor.Vector) (step int, err error) {
	h, err := c.recvHeader(true)
	if err != nil {
		return 0, err
	}
	if h.Dim != len(dst) {
		return 0, fmt.Errorf("%w: model frame carries %d coordinates, the destination holds %d", ErrBadFrame, h.Dim, len(dst))
	}
	return h.Step, c.recvCoords(dst)
}

// Close shuts the connection down.
func (c *TCPConn) Close() error { return c.conn.Close() }
