//go:build linux && (amd64 || arm64)

// Batched datagram I/O via sendmmsg/recvmmsg, where a *message* of a batch
// carries a run of datagrams: UDP_SEGMENT hands the kernel up to 64 equal
// frames (65,507 bytes) as one message to cut back into the very same
// datagrams, UDP_GRO receives such a run as one message plus its segment
// size. A paper-scale (d = 1.75M) gradient is 10.3k datagrams at MTU 1400;
// a trip through the UDP/IP stack serves up to 46 of them. The raw syscalls
// are driven through the net poller's RawConn so read deadlines and
// non-blocking semantics keep working exactly as for ReadFromUDP/Write; the
// portable fallback in batch_portable.go keeps other platforms on the
// one-datagram path with the same interface.
package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"syscall"
	"unsafe"
)

// Socket options of <linux/udp.h> the stdlib syscall table predates. Control
// messages are built and read as bytes: cmsghdr is len u64 | level i32 |
// type i32 on linux/amd64 and linux/arm64, then the payload.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT: u16 segment size, socket option or cmsg
	udpGRO     = 104 // UDP_GRO: int socket option; cmsg carrying the int segment size
)

// maxSegs is the segs of a socket whose kernel knows the option. A variable
// only so a test can run whole clusters at 1.
var maxSegs = udpMaxSegs

// mmsgHdr mirrors struct mmsghdr. Go pads the struct to the alignment of
// the embedded Msghdr (8 bytes on amd64/arm64), matching the C layout.
type mmsgHdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// sendmmsg is the raw syscall: how many of the n messages at hdrs went out.
func sendmmsg(fd uintptr, hdrs *mmsgHdr, n int) (int, syscall.Errno) {
	r, _, errno := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(hdrs)), uintptr(n), 0, 0, 0)
	return int(r), errno
}

// sendBatcher writes frames on a connected UDP socket with sendmmsg, packing
// consecutive frames of equal length (a shorter one may close the run — the
// shape Codec.SplitInto produces) into one message of at most segs
// datagrams. segs is probed once: maxSegs where the kernel answers
// getsockopt(UDP_SEGMENT), else 1; a route that refuses a segmented message
// takes the socket to 1 for good. All bookkeeping — arrays, control messages,
// the in-flight cursor and the ready callback handed to the poller — lives on
// the struct and is built once, so a steady-state Send performs zero
// allocations (a closure over locals would heap-allocate on every flush).
type sendBatcher struct {
	conn *net.UDPConn
	rc   syscall.RawConn
	segs int
	hdrs []mmsgHdr       // one per message of the current Send
	iovs []syscall.Iovec // one per frame
	ctl  []byte          // one UDP_SEGMENT control message per hdr

	frames, at  int // frames of the current Send; the first one not yet written
	sent, total int // messages of the current packing
	opErr       error
	ready       func(fd uintptr) bool
	sys         func(fd uintptr, hdrs *mmsgHdr, n int) (int, syscall.Errno) // sendmmsg; tests refuse through it
	stats       UDPStats
}

func newSendBatcher(conn *net.UDPConn, maxFrames int) (*sendBatcher, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("transport: raw conn: %w", err)
	}
	space := syscall.CmsgSpace(2)
	b := &sendBatcher{
		conn: conn,
		rc:   rc,
		segs: 1,
		hdrs: make([]mmsgHdr, maxFrames),
		iovs: make([]syscall.Iovec, maxFrames),
		ctl:  make([]byte, maxFrames*space),
		sys:  sendmmsg,
	}
	for off := 0; off < len(b.ctl); off += space {
		binary.NativeEndian.PutUint64(b.ctl[off:], uint64(syscall.CmsgLen(2)))
		binary.NativeEndian.PutUint32(b.ctl[off+8:], solUDP)
		binary.NativeEndian.PutUint32(b.ctl[off+12:], udpSegment)
	}
	_ = rc.Control(func(fd uintptr) { // a socket closed under us stays at 1 and fails its first write
		if _, err := syscall.GetsockoptInt(int(fd), solUDP, udpSegment); err == nil {
			b.segs = maxSegs
		}
	})
	b.ready = b.writeReady
	return b, nil
}

// pack lays the unwritten frames out as messages under the current segs.
// Connected socket: no destination name.
func (b *sendBatcher) pack() {
	space := syscall.CmsgSpace(2)
	b.sent, b.total = 0, 0
	for i := b.at; i < b.frames; {
		seg := b.iovs[i].Len
		n, bytes := 1, seg
		for i+n < b.frames && n < b.segs {
			l := b.iovs[i+n].Len
			if l > seg || bytes+l > udpMaxPayload {
				break
			}
			n, bytes = n+1, bytes+l
			if l < seg {
				break
			}
		}
		h := &b.hdrs[b.total].hdr
		h.Iov, h.Iovlen = &b.iovs[i], uint64(n)
		h.Control, h.Controllen = nil, 0
		if n > 1 {
			off := b.total * space
			binary.NativeEndian.PutUint16(b.ctl[off+syscall.SizeofCmsghdr:], uint16(seg))
			h.Control, h.Controllen = &b.ctl[off], uint64(space)
		}
		b.total++
		i += n
	}
}

// writeReady is the poller callback: push the remaining messages, parking on
// EAGAIN until the socket is writable again.
func (b *sendBatcher) writeReady(fd uintptr) bool {
	for b.sent < b.total {
		n, errno := b.sys(fd, &b.hdrs[b.sent], b.total-b.sent)
		b.stats.Syscalls++
		switch {
		case errno == syscall.EAGAIN:
			return false // wait for writability, then retry
		case (errno == syscall.EIO || errno == syscall.EINVAL) && b.hdrs[b.sent].hdr.Iovlen > 1:
			// The route refuses segmentation (EIO: no checksum offload;
			// EINVAL: segment larger than the path MTU). sendmmsg counted
			// the whole messages that went out before this one, so the rest
			// is repacked one datagram a message and nothing is lost or sent
			// twice.
			b.segs = 1
			b.pack()
		case errno != 0:
			b.opErr = errno
			return true
		default:
			for _, h := range b.hdrs[b.sent : b.sent+n] {
				b.at += int(h.hdr.Iovlen)
			}
			b.sent += n
			b.stats.Messages += n
		}
	}
	return true
}

// Send writes every buffer as one datagram, in order, using as few messages
// and sendmmsg calls as possible. len(bufs) must not exceed the maxFrames the
// batcher was built with.
func (b *sendBatcher) Send(bufs [][]byte) error {
	for i, buf := range bufs {
		b.iovs[i].Base = &buf[0]
		b.iovs[i].Len = uint64(len(buf))
	}
	b.frames, b.at, b.opErr = len(bufs), 0, nil
	b.pack()
	err := b.rc.Write(b.ready)
	b.stats.Datagrams += b.at
	if err == nil {
		err = b.opErr
	}
	if err != nil {
		return fmt.Errorf("transport: udp sendmmsg: %w", err)
	}
	return nil
}

// recvBatcher reads batches of messages with recvmmsg into a preallocated
// buffer arena. UDP_GRO is requested once, best-effort: where the kernel
// grants it (segs > 1) a message may be a run of equal datagrams with their
// segment size in a control message, and two 64 KiB slots a syscall carry
// what sixteen used to; elsewhere a message is one datagram. The read honours
// the conn's read deadline through the poller (rc.Read returns the deadline
// error exactly like ReadFromUDP).
type recvBatcher struct {
	rc    syscall.RawConn
	segs  int
	hdrs  []mmsgHdr
	iovs  []syscall.Iovec
	ctl   []byte // one UDP_GRO control message per hdr
	arena []byte

	got   int
	opErr error
	ready func(fd uintptr) bool
	stats UDPStats
}

func newRecvBatcher(conn *net.UDPConn) (*recvBatcher, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("transport: raw conn: %w", err)
	}
	b := &recvBatcher{rc: rc, segs: 1}
	_ = rc.Control(func(fd uintptr) { // best-effort, like the option itself
		if syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil {
			b.segs = udpMaxSegs
		}
	})
	slots := udpBatch
	if b.segs > 1 {
		slots = udpCoalescedSlots
	}
	space := syscall.CmsgSpace(4)
	b.hdrs = make([]mmsgHdr, slots)
	b.iovs = make([]syscall.Iovec, slots)
	b.ctl = make([]byte, slots*space)
	b.arena = make([]byte, slots*udpRecvBufSize)
	for i := range b.hdrs {
		b.iovs[i].Base = &b.arena[i*udpRecvBufSize]
		b.iovs[i].Len = udpRecvBufSize
		b.hdrs[i].hdr.Iov = &b.iovs[i]
		b.hdrs[i].hdr.Iovlen = 1
		b.hdrs[i].hdr.Control = &b.ctl[i*space]
	}
	b.ready = b.readReady
	return b, nil
}

// readReady is the poller callback: drain one recvmmsg batch, parking on
// EAGAIN until the socket is readable or the deadline fires.
func (b *recvBatcher) readReady(fd uintptr) bool {
	for i := range b.hdrs {
		// The kernel overwrites it with the length it wrote.
		b.hdrs[i].hdr.Controllen = uint64(syscall.CmsgSpace(4))
	}
	n, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&b.hdrs[0])), uintptr(len(b.hdrs)),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	b.stats.Syscalls++
	if errno == syscall.EAGAIN {
		return false // nothing queued: wait for readability or deadline
	}
	if errno != 0 {
		b.opErr = errno
		return true
	}
	b.got = int(n)
	return true
}

// Recv blocks until at least one message arrives or the conn's read
// deadline passes, then drains up to a slot's worth of messages in one
// recvmmsg. Message i is Message(i), valid until the next Recv. The callback
// state lives on the struct so a steady-state Recv performs zero allocations.
func (b *recvBatcher) Recv() (int, error) {
	b.got, b.opErr = 0, nil
	err := b.rc.Read(b.ready)
	if err == nil {
		err = b.opErr
	}
	if err != nil {
		return 0, fmt.Errorf("transport: udp recvmmsg: %w", err)
	}
	b.stats.Messages += b.got
	return b.got, nil
}

// Message returns the i-th message of the last Recv and the length of the
// datagrams it is a run of (its own length when it is one datagram). A
// message the kernel cut short — MSG_TRUNC: longer than its slot; MSG_CTRUNC:
// the segment size was lost, so a run would be misread as one malformed
// datagram — is counted and comes back empty, never decoded. Call it once
// per message.
func (b *recvBatcher) Message(i int) (msg []byte, seg int) {
	h := &b.hdrs[i]
	if h.hdr.Flags&(syscall.MSG_TRUNC|syscall.MSG_CTRUNC) != 0 {
		b.stats.Truncated++
		return nil, 0
	}
	msg = b.arena[i*udpRecvBufSize : i*udpRecvBufSize+int(h.n)]
	space := syscall.CmsgSpace(4)
	ctl := b.ctl[i*space : i*space+int(min(h.hdr.Controllen, uint64(space)))]
	if len(ctl) >= syscall.CmsgLen(4) &&
		binary.NativeEndian.Uint32(ctl[8:]) == solUDP && binary.NativeEndian.Uint32(ctl[12:]) == udpGRO {
		return msg, int(int32(binary.NativeEndian.Uint32(ctl[syscall.SizeofCmsghdr:])))
	}
	return msg, len(msg)
}

// readBuffer is getsockopt(SO_RCVBUF): what the kernel granted, as it
// accounts it (Linux reports twice the payload bytes it was asked for, after
// capping the request at net.core.rmem_max).
func (b *recvBatcher) readBuffer() int {
	size := 0
	_ = b.rc.Control(func(fd uintptr) { // a closed socket reads as 0
		size, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	})
	return size
}
