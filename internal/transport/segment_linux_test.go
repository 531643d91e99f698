//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"
)

// datagramSink is where a test's datagrams land: a GRO receiver walking
// coalesced messages, or a plain socket reading one datagram a call.
type datagramSink interface {
	addr() string
	read(deadline time.Time) ([]byte, error) // valid until the next read
}

type groSink struct{ *UDPReceiver }

func (s groSink) addr() string                     { return s.Addr() }
func (s groSink) read(d time.Time) ([]byte, error) { return s.readDatagram(d) }
func newGROSink(t *testing.T, codec Codec) datagramSink {
	t.Helper()
	recv, err := ListenUDP("127.0.0.1:0", codec, DropGradient, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	return groSink{recv}
}

type plainSink struct {
	conn *net.UDPConn
	buf  []byte
}

func (s *plainSink) addr() string { return s.conn.LocalAddr().String() }
func (s *plainSink) read(d time.Time) ([]byte, error) {
	if err := s.conn.SetReadDeadline(d); err != nil {
		return nil, err
	}
	n, err := s.conn.Read(s.buf)
	return s.buf[:n], err
}
func newPlainSink(t *testing.T, _ Codec) datagramSink {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetReadBuffer(8 << 20) // best-effort, as ListenUDP: the reader below runs beside the sender
	return &plainSink{conn: conn, buf: make([]byte, udpRecvBufSize)}
}

// collect reads want datagrams off the sink, then requires it to be quiet.
func collect(t *testing.T, sink datagramSink, want int) [][]byte {
	t.Helper()
	var got [][]byte
	for len(got) < want {
		buf, err := sink.read(time.Now().Add(5 * time.Second))
		if err != nil {
			t.Fatalf("after %d of %d datagrams: %v", len(got), want, err)
		}
		got = append(got, bytes.Clone(buf))
	}
	if buf, err := sink.read(time.Now().Add(20 * time.Millisecond)); err == nil {
		t.Fatalf("a datagram of %d bytes beyond the %d sent", len(buf), want)
	}
	return got
}

// TestSegmentedSendIsDatagramSend: a message that carries a run of
// datagrams is an optimisation of the trip through the kernel, never of the
// wire. The same packets through a segmenting sender into a GRO receiver,
// through a segmenting sender into a plain socket (the peer without the
// option) and through a sender held at one datagram a message must each
// deliver the byte-identical datagram sequence.
func TestSegmentedSendIsDatagramSend(t *testing.T) {
	const dim, mtu = 25450, DefaultMTU
	split := func(c Codec, d int) []Packet {
		return c.Split(&GradientMsg{Worker: 3, Step: 7, Loss: 0.25, Grad: modelParams(d)}, mtu)
	}
	odd := func(sizes ...int) []Packet {
		pkts := make([]Packet, len(sizes))
		for i, n := range sizes {
			pkts[i] = Packet{Worker: i, Step: 1, Dim: 4096, Offset: i, Coords: modelParams(n)}
		}
		return pkts
	}
	f64, f32 := Codec{}, Codec{Float32: true}
	every10th := make([]bool, f64.PacketsPerTransfer(dim, mtu))
	for i := range every10th {
		every10th[i] = i%10 == 3
	}
	noTail := make([]bool, len(every10th))
	noTail[len(noTail)-1] = true
	cases := []struct {
		name   string
		codec  Codec
		pkts   []Packet
		mask   []bool
		single bool // one SendPacket per packet instead of one SendPackets
	}{
		{name: "float64 split", codec: f64, pkts: split(f64, dim)},
		{name: "float32 split", codec: f32, pkts: split(f32, dim)},
		{name: "one-coordinate tail", codec: f64, pkts: split(f64, 5*f64.CoordsPerPacket(mtu)+1)},
		{name: "10% mask", codec: f64, pkts: split(f64, dim), mask: every10th},
		{name: "masked tail", codec: f64, pkts: split(f64, dim), mask: noTail},
		{name: "odd sizes, one send", codec: f64, pkts: odd(3, 3, 7, 2, 2, 2, 50, 1, 1, 1, 170, 170, 0, 9)},
		{name: "odd sizes, packet by packet", codec: f64, pkts: odd(3, 3, 7, 2, 2, 2, 50, 1, 0), single: true},
	}
	paths := []struct {
		name string
		segs int // 0: whatever the probe found
		sink func(*testing.T, Codec) datagramSink
	}{
		{"segmented to GRO receiver", 0, newGROSink},
		{"segmented to plain socket", 0, newPlainSink},
		{"one datagram a message to GRO receiver", 1, newGROSink},
	}
	for _, tc := range cases {
		var want [][]byte
		for i := range tc.pkts {
			if i >= len(tc.mask) || !tc.mask[i] {
				want = append(want, tc.codec.AppendPacket(nil, &tc.pkts[i]))
			}
		}
		for _, path := range paths {
			t.Run(tc.name+"/"+path.name, func(t *testing.T) {
				sink := path.sink(t, tc.codec)
				send, err := DialUDP(sink.addr(), tc.codec, mtu, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer send.Close()
				probed := send.batcher.segs
				if path.segs != 0 {
					send.batcher.segs = path.segs
				}
				sent := make(chan error, 1)
				go func() {
					if !tc.single {
						sent <- send.SendPackets(tc.pkts, tc.mask)
						return
					}
					for i := range tc.pkts {
						if err := send.SendPacket(&tc.pkts[i]); err != nil {
							sent <- err
							return
						}
					}
					sent <- nil
				}()
				got := collect(t, sink, len(want))
				if err := <-sent; err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("datagram %d of %d: %d bytes received, %d bytes encoded, or different ones", i, len(want), len(got[i]), len(want[i]))
					}
				}
				st := send.Stats()
				if st.Datagrams != len(want) {
					t.Fatalf("sender counted %d datagrams, wrote %d", st.Datagrams, len(want))
				}
				switch {
				case send.batcher.segs == 1 && st.Messages != st.Datagrams:
					t.Fatalf("segs = 1 but %d datagrams went out in %d messages", st.Datagrams, st.Messages)
				case path.segs == 0 && probed > 1 && send.batcher.segs == 1:
					t.Fatal("loopback refused a segmented send: the socket fell back")
				case send.batcher.segs > 1 && !tc.single && st.Messages >= st.Datagrams:
					t.Fatalf("segs = %d but %d datagrams took %d messages: nothing was segmented", send.batcher.segs, st.Datagrams, st.Messages)
				}
			})
		}
	}
}

// TestRefusedSegmentedSendDegradesTheSocket: a route that refuses a
// segmented message (EIO: no checksum offload; EINVAL: segment above the path
// MTU) after k of a Send's m messages went out costs the socket its
// segmentation and nothing else — every datagram arrives once, in order.
func TestRefusedSegmentedSendDegradesTheSocket(t *testing.T) {
	const m, segs = 4, 8
	for _, errno := range []syscall.Errno{syscall.EIO, syscall.EINVAL} {
		for k := 0; k < m; k++ {
			t.Run(fmt.Sprintf("%v after %d of %d", errno, k, m), func(t *testing.T) {
				sink := newPlainSink(t, Codec{})
				raddr, err := net.ResolveUDPAddr("udp", sink.addr())
				if err != nil {
					t.Fatal(err)
				}
				conn, err := net.DialUDP("udp", nil, raddr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				b, err := newSendBatcher(conn, m*segs)
				if err != nil {
					t.Fatal(err)
				}
				b.segs = segs
				// Message j is a run of segs frames of 100+j bytes: a longer
				// frame cannot join the run before it.
				var frames [][]byte
				for j := 0; j < m; j++ {
					for s := 0; s < segs; s++ {
						frames = append(frames, bytes.Repeat([]byte{byte(len(frames))}, 100+j))
					}
				}
				calls := 0
				b.sys = func(fd uintptr, hdrs *mmsgHdr, n int) (int, syscall.Errno) {
					calls++
					switch {
					case calls == 1 && k > 0:
						return sendmmsg(fd, hdrs, min(n, k)) // the kernel took k messages ...
					case calls == 1 || (calls == 2 && k > 0):
						return 0, errno // ... and refused the next
					}
					return sendmmsg(fd, hdrs, n)
				}
				if err := b.Send(frames); err != nil {
					t.Fatal(err)
				}
				got := collect(t, sink, len(frames))
				for i := range frames {
					if !bytes.Equal(got[i], frames[i]) {
						t.Fatalf("datagram %d is not frame %d: lost, duplicated or reordered across the fallback", i, i)
					}
				}
				if b.segs != 1 {
					t.Fatalf("segs = %d after a refused segmented send, want 1", b.segs)
				}
				if want := k + (m-k)*segs; b.stats.Datagrams != len(frames) || b.stats.Messages != want {
					t.Fatalf("%d datagrams in %d messages counted, want %d in %d", b.stats.Datagrams, b.stats.Messages, len(frames), want)
				}
				// The socket stays usable, unsegmented.
				if err := b.Send(frames[:segs]); err != nil {
					t.Fatal(err)
				}
				collect(t, sink, segs)
				if b.stats.Messages != k+(m-k)*segs+segs {
					t.Fatalf("a send after the fallback was segmented again")
				}
			})
		}
	}
}

// TestRecvSkipsTruncatedMessages hands the message parser headers as the
// kernel would leave them. MSG_TRUNC (the message was longer than its slot)
// and MSG_CTRUNC (the segment size did not fit, so a run of datagrams would be
// misread as one malformed one) are counted and yield nothing; a UDP_GRO
// control message sets the segment size; none leaves the message whole.
func TestRecvSkipsTruncatedMessages(t *testing.T) {
	recv, err := ListenUDP("127.0.0.1:0", Codec{}, DropGradient, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	b := recv.batcher
	if len(b.ctl) != len(b.hdrs)*syscall.CmsgSpace(4) {
		t.Fatalf("%d control bytes for %d messages, want CmsgSpace(4) = %d each", len(b.ctl), len(b.hdrs), syscall.CmsgSpace(4))
	}
	set := func(i, n int, flags int32, gro int) {
		b.hdrs[i].n, b.hdrs[i].hdr.Flags, b.hdrs[i].hdr.Controllen = uint32(n), flags, 0
		if gro > 0 {
			ctl := b.ctl[i*syscall.CmsgSpace(4):]
			binary.NativeEndian.PutUint64(ctl, uint64(syscall.CmsgLen(4)))
			binary.NativeEndian.PutUint32(ctl[8:], solUDP)
			binary.NativeEndian.PutUint32(ctl[12:], udpGRO)
			binary.NativeEndian.PutUint32(ctl[syscall.SizeofCmsghdr:], uint32(gro))
			b.hdrs[i].hdr.Controllen = uint64(syscall.CmsgLen(4))
		}
	}
	for _, flag := range []int32{syscall.MSG_TRUNC, syscall.MSG_CTRUNC, syscall.MSG_TRUNC | syscall.MSG_CTRUNC} {
		before := recv.Stats().Truncated
		set(0, 300, flag, 100)
		if msg, _ := b.Message(0); msg != nil || recv.Stats().Truncated != before+1 {
			t.Fatalf("flags %#x: %d bytes handed on, %d counted", flag, len(msg), recv.Stats().Truncated-before)
		}
	}
	set(0, 300, 0, 100)
	if msg, seg := b.Message(0); len(msg) != 300 || seg != 100 {
		t.Fatalf("coalesced message read as %d bytes in segments of %d, want 300 and 100", len(msg), seg)
	}
	set(0, 300, 0, 0)
	if msg, seg := b.Message(0); len(msg) != 300 || seg != 300 {
		t.Fatalf("lone datagram read as %d bytes in segments of %d, want 300 and 300", len(msg), seg)
	}

	// And through the walk: a truncated message between two good ones costs
	// exactly itself.
	copy(b.arena, "aabbc")
	copy(b.arena[udpRecvBufSize:], "dd")
	set(0, 5, 0, 2)
	set(1, 2, syscall.MSG_CTRUNC, 0)
	recv.msgs, recv.next = 2, 0
	truncated := recv.Stats().Truncated
	for _, want := range []string{"aa", "bb", "c"} {
		got, err := recv.readDatagram(time.Now().Add(time.Second))
		if err != nil || string(got) != want {
			t.Fatalf("walk yielded %q (%v), want %q", got, err, want)
		}
	}
	if _, err := recv.readDatagram(time.Now().Add(20 * time.Millisecond)); !isTimeout(err) {
		t.Fatalf("the truncated message was handed on (err %v)", err)
	}
	if n := recv.Stats().Truncated - truncated; n != 1 {
		t.Fatalf("%d truncated messages counted, want 1", n)
	}
}

// TestStatsShowTheSegmentation is the guard against a silent fallback: one
// d = 25,450 gradient is 150 datagrams, and where the probe found UDP_SEGMENT
// it must cross the kernel in ⌈150/46⌉ = 4 messages on both ends — CI cannot
// pass on the one-datagram path while believing it is on this one.
func TestStatsShowTheSegmentation(t *testing.T) {
	const dim = 25450
	codec := Codec{}
	recv, err := ListenUDP("127.0.0.1:0", codec, DropGradient, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := DialUDP(recv.Addr(), codec, DefaultMTU, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	if err := send.SendGradient(&GradientMsg{Worker: 1, Grad: modelParams(dim)}); err != nil {
		t.Fatal(err)
	}
	if _, err := recv.RecvGradient(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	pkts := codec.PacketsPerTransfer(dim, DefaultMTU)
	per := framesPerMessage(DefaultMTU)
	ss, rs := send.Stats(), recv.Stats()
	t.Logf("probe: send segs %d, receive segs %d, receive buffer granted %d bytes", send.batcher.segs, recv.batcher.segs, recv.ReadBuffer())
	t.Logf("send %+v, receive %+v: %d datagrams, at most %d a message", ss, rs, pkts, per)
	if recv.ReadBuffer() <= 0 {
		t.Fatalf("ReadBuffer() = %d on a bound socket", recv.ReadBuffer())
	}
	if ss.Datagrams != pkts || rs.Datagrams != pkts || rs.Truncated != 0 {
		t.Fatalf("a %d-datagram transfer counted as send %+v, receive %+v", pkts, ss, rs)
	}
	want := pkts
	if send.batcher.segs > 1 {
		want = (pkts + per - 1) / per
	}
	if ss.Messages != want {
		t.Fatalf("send: %d datagrams in %d messages, want %d (segs %d)", ss.Datagrams, ss.Messages, want, send.batcher.segs)
	}
	if recv.batcher.segs > 1 && rs.Messages != want {
		t.Fatalf("receive: %d datagrams in %d messages, want the %d that were sent", rs.Datagrams, rs.Messages, want)
	}
}
