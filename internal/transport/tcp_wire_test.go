package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"strings"
	"testing"

	"aggregathor/internal/tensor"
)

// TestTCPMixedWidthPeersRejectLoudly pins the wire-format negotiation
// contract on the reliable path: a dialer and listener configured with
// different coordinate widths must fail loudly with ErrWireFormat on the
// first frame — never silently mis-decode, and never report a generic
// framing error that hides the configuration mismatch. Both directions of
// the mismatch are covered, for both gradient and model frames — each on a
// connection of its own, since a refused frame's body stays unread and the
// error is terminal for the stream.
func TestTCPMixedWidthPeersRejectLoudly(t *testing.T) {
	cases := []struct {
		name     string
		listener Codec
		dialer   Codec
	}{
		{"f64-listener_f32-dialer", Codec{}, Codec{Float32: true}},
		{"f32-listener_f64-dialer", Codec{Float32: true}, Codec{}},
	}
	frames := []struct {
		name string
		send func(*TCPConn) error
		recv func(*TCPConn) error
	}{
		{"gradient",
			func(c *TCPConn) error {
				return c.SendGradient(&GradientMsg{Worker: 2, Step: 5, Grad: tensor.Vector{1, 2, 3}})
			},
			func(c *TCPConn) error { _, err := c.RecvGradient(); return err }},
		{"model",
			func(c *TCPConn) error {
				return c.SendModelCoords(5, c.codec.WireCoords(tensor.Vector{4, 5}, new([]byte)))
			},
			func(c *TCPConn) error { _, err := c.RecvModel(tensor.NewVector(2)); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, fr := range frames {
				ln, err := ListenTCP("127.0.0.1:0", tc.listener)
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()

				sendErr := make(chan error, 1)
				go func() {
					peer, err := DialTCP(ln.Addr(), tc.dialer)
					if err != nil {
						sendErr <- err
						return
					}
					defer peer.Close()
					sendErr <- fr.send(peer)
				}()

				conn, err := ln.Accept()
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()

				recvErr := fr.recv(conn)
				if !errors.Is(recvErr, ErrWireFormat) {
					t.Fatalf("%s from mixed-width peer: want ErrWireFormat, got %v", fr.name, recvErr)
				}
				// ErrWireFormat unwraps to ErrBadFrame so existing malformed-input
				// handling catches it too.
				if !errors.Is(recvErr, ErrBadFrame) {
					t.Fatalf("ErrWireFormat must unwrap to ErrBadFrame, got %v", recvErr)
				}
				if err := <-sendErr; err != nil {
					t.Fatalf("mixed-width send side failed before decode: %v", err)
				}
			}
		})
	}
}

// TestWireLayoutPinned pins the bytes of one datagram and one TCP gradient
// frame, field by field. Both open with the one header; the frame is a
// length prefix and one whole-message datagram (offset 0, count = dim). The
// datagram is wire version 4's but for the version byte.
func TestWireLayoutPinned(t *testing.T) {
	hexBytes := func(fields ...string) []byte {
		b, err := hex.DecodeString(strings.Join(fields, ""))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	const (
		magic  = "a7066ea6"
		worker = "03000000"
		step   = "0504030201000000"
		loss   = "000000000000e03f" // 0.5
	)
	datagram := Codec{Float32: true}.AppendPacket(nil, &Packet{
		Worker: 3, Step: 0x0102030405, Loss: 0.5, Dim: 6, Offset: 2, Coords: tensor.Vector{1.5, -2}})
	want := hexBytes(magic, "05", "04", worker, step, loss, "06000000", "02000000", "02000000", "0000c03f", "000000c0")
	if !bytes.Equal(datagram, want) {
		t.Fatalf("datagram\n got %x\nwant %x", datagram, want)
	}

	send, recv := pipeConns(Codec{})
	go func() {
		send.SendGradient(&GradientMsg{Worker: 3, Step: 0x0102030405, Loss: 0.5, Grad: tensor.Vector{1.5, -2}})
		send.Close()
	}()
	frame, err := io.ReadAll(recv.conn)
	if err != nil {
		t.Fatal(err)
	}
	want = hexBytes("36000000", magic, "05", "08", worker, step, loss, "02000000", "00000000", "02000000",
		"000000000000f83f", "00000000000000c0")
	if !bytes.Equal(frame, want) {
		t.Fatalf("TCP gradient frame\n got %x\nwant %x", frame, want)
	}
}
