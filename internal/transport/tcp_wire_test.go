package transport

import (
	"errors"
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
			func(c *TCPConn) error { return c.SendModel(&ModelMsg{Step: 5, Params: tensor.Vector{4, 5}}) },
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
