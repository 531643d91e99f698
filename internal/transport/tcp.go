package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// maxFrameBytes bounds a single TCP frame (1 GiB) so a malicious peer cannot
// force an arbitrary allocation with a forged length prefix.
const maxFrameBytes = 1 << 30

// TCPConn is a reliable, length-prefixed message connection — the stand-in
// for TensorFlow's gRPC channel. Each frame is u32 little-endian length
// followed by a codec-encoded message.
type TCPConn struct {
	conn  net.Conn
	codec Codec
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

func (c *TCPConn) writeFrame(body []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := c.conn.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: write frame header: %w", err)
	}
	if _, err := c.conn.Write(body); err != nil {
		return fmt.Errorf("transport: write frame body: %w", err)
	}
	return nil
}

func (c *TCPConn) readFrame() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.conn, hdr[:]); err != nil {
		return nil, fmt.Errorf("transport: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrameBytes {
		return nil, fmt.Errorf("%w: frame length %d exceeds limit", ErrBadFrame, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(c.conn, body); err != nil {
		return nil, fmt.Errorf("transport: read frame body: %w", err)
	}
	return body, nil
}

// SendGradient writes one gradient message.
func (c *TCPConn) SendGradient(m *GradientMsg) error {
	return c.writeFrame(c.codec.EncodeGradient(m))
}

// RecvGradient reads one gradient message.
func (c *TCPConn) RecvGradient() (*GradientMsg, error) {
	body, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	return c.codec.DecodeGradient(body)
}

// SendModel writes one model broadcast.
func (c *TCPConn) SendModel(m *ModelMsg) error {
	return c.SendEncodedModel(c.codec.EncodeModel(m))
}

// SendEncodedModel writes a model broadcast that Codec.EncodeModel already
// rendered under this connection's codec. The frame is only read, so a
// broadcast encodes once and every connection writes the same bytes.
func (c *TCPConn) SendEncodedModel(frame []byte) error {
	return c.writeFrame(frame)
}

// RecvModel reads one model broadcast.
func (c *TCPConn) RecvModel() (*ModelMsg, error) {
	body, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	return c.codec.DecodeModel(body)
}

// Close shuts the connection down.
func (c *TCPConn) Close() error { return c.conn.Close() }
