//go:build !linux || !(amd64 || arm64)

// Portable fallback for the batched datagram I/O in batch_linux.go: the
// same sendBatcher/recvBatcher interface, implemented one datagram, one
// message and one syscall at a time through the standard net methods.
package transport

import "net"

// batchedSyscalls reports whether this platform batches datagram syscalls.
const batchedSyscalls = false

type sendBatcher struct {
	conn  *net.UDPConn
	stats UDPStats
}

func newSendBatcher(conn *net.UDPConn, maxFrames int) (*sendBatcher, error) {
	return &sendBatcher{conn: conn}, nil
}

// Send writes every buffer as one datagram, in order.
func (b *sendBatcher) Send(bufs [][]byte) error {
	for _, buf := range bufs {
		b.stats.Syscalls++
		if _, err := b.conn.Write(buf); err != nil {
			return err
		}
		b.stats.Messages++
		b.stats.Datagrams++
	}
	return nil
}

type recvBatcher struct {
	conn  *net.UDPConn
	buf   []byte
	n     int
	stats UDPStats
}

func newRecvBatcher(conn *net.UDPConn) (*recvBatcher, error) {
	return &recvBatcher{conn: conn, buf: make([]byte, udpRecvBufSize)}, nil
}

// Recv blocks until one datagram arrives or the conn's read deadline
// passes. The portable path delivers one message per call.
func (b *recvBatcher) Recv() (int, error) {
	b.stats.Syscalls++
	n, _, err := b.conn.ReadFromUDP(b.buf)
	if err != nil {
		return 0, err
	}
	b.n = n
	b.stats.Messages++
	return 1, nil
}

// Message returns the i-th message of the last Recv: always one datagram.
func (b *recvBatcher) Message(i int) (msg []byte, seg int) {
	return b.buf[:b.n], b.n
}

// readBuffer: the portable net API has no way to ask.
func (b *recvBatcher) readBuffer() int { return 0 }
