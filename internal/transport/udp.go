package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"time"
)

// ErrTimeout is returned by UDPReceiver.RecvGradient when the deadline
// passes with nothing deliverable under the recoup policy.
var ErrTimeout = errors.New("transport: udp receive timeout")

// Datagram path sizing. A *message* is what one mmsghdr of a
// sendmmsg/recvmmsg carries: a run of up to udpMaxSegs equal datagrams (the
// last may be shorter) of at most udpMaxPayload bytes together where the
// socket segments (UDP_SEGMENT / UDP_GRO), one datagram elsewhere. A sender
// flushes one message's worth of frames at a time. A receive slot is 64 KiB
// because that is what a coalesced message can be, and because the sender's
// MTU is not negotiated (a lone datagram can be up to udpMaxPayload bytes
// too, and recvmmsg truncates anything beyond the slot); a receiver hands
// recvmmsg udpBatch slots when a message is a datagram and udpCoalescedSlots
// when it is a run — the same ~46 datagrams a syscall from an eighth of the
// memory, every byte of which a full message touches.
const (
	udpBatch          = 16
	udpCoalescedSlots = 2
	udpRecvBufSize    = 65536
	udpMaxSegs        = 64    // UDP_MAX_SEGMENTS of every kernel that has UDP_SEGMENT
	udpMaxPayload     = 65507 // 65,535 − IP header − UDP header
)

// framesPerMessage is how many mtu-sized frames one message can carry: 46 at
// DefaultMTU.
func framesPerMessage(mtu int) int {
	return max(1, min(udpMaxSegs, udpMaxPayload/mtu))
}

// UDPStats counts what a datagram endpoint moved through the kernel since it
// was opened. Datagrams ÷ Messages is the segmentation actually achieved (1
// on a socket that probed or fell back to one datagram a message) and
// Messages ÷ Syscalls the sendmmsg / recvmmsg batch fill. Plain counters,
// written by the goroutine that drives the endpoint: read them from it, or
// once it is quiet.
type UDPStats struct {
	Datagrams int // written to the socket / handed to the decoder
	Messages  int // mmsghdr entries the kernel took / filled
	Syscalls  int // sendmmsg / recvmmsg calls, those that found the socket not ready included
	Truncated int // received messages skipped undecoded: MSG_TRUNC or MSG_CTRUNC
}

func (a UDPStats) add(b UDPStats) UDPStats {
	return UDPStats{a.Datagrams + b.Datagrams, a.Messages + b.Messages, a.Syscalls + b.Syscalls, a.Truncated + b.Truncated}
}

// chunker is the chunk-and-pace loop behind every datagram write, a single
// sender's and the fan-out's alike. A chunk is what one flush hands a
// socket: the frames of at most one message, encoded once into the chunker's
// arena, ending early at the packet that reaches the pacing burst. A
// datagram burst larger than the receiver's kernel buffer is silently
// truncated by the kernel (the "loss-free" channel genuinely drops), so
// after every burst bytes written toward one destination the writer sleeps
// for delay.
type chunker struct {
	codec Codec
	batch int // frames per chunk
	// frames are subslices of arena, which is sized for a full chunk up
	// front: only an oversized hand-built packet can force it to grow, and
	// then it starts a chunk of its own.
	arena  []byte
	frames [][]byte

	paceBurst int
	paceDelay time.Duration
	burstAcc  int                 // bytes per destination since the last sleep; carries across transfers
	sleep     func(time.Duration) // time.Sleep; tests count the calls
}

func newChunker(codec Codec, mtu int) chunker {
	batch := framesPerMessage(mtu)
	return chunker{codec: codec, batch: batch, sleep: time.Sleep,
		arena: make([]byte, 0, batch*mtu), frames: make([][]byte, 0, batch)}
}

// next encodes the next chunk of pkts[lo:] — skipping index i when dropped[i]
// is true; dropped may be nil or shorter than pkts — into c.frames and
// returns the index after the last packet it consumed.
func (c *chunker) next(pkts []Packet, dropped []bool, lo int) (hi int) {
	c.arena, c.frames = c.arena[:0], c.frames[:0]
	for hi = lo; hi < len(pkts); hi++ {
		if hi < len(dropped) && dropped[hi] {
			continue // the tc stand-in: this datagram "was lost"
		}
		if len(c.frames) > 0 && cap(c.arena)-len(c.arena) < c.codec.PacketWireLen(&pkts[hi]) {
			break // growing the arena would reallocate it and dangle the frames already queued
		}
		start := len(c.arena)
		c.arena = c.codec.AppendPacket(c.arena, &pkts[hi])
		c.frames = append(c.frames, c.arena[start:])
		if len(c.frames) == c.batch || (c.paceBurst > 0 && c.burstAcc+len(c.arena) >= c.paceBurst) {
			return hi + 1
		}
	}
	return hi
}

// pace accounts the chunk just written and sleeps once the burst is reached.
func (c *chunker) pace() {
	c.burstAcc += len(c.arena)
	if c.paceBurst > 0 && c.burstAcc >= c.paceBurst {
		c.burstAcc = 0
		c.sleep(c.paceDelay)
	}
}

// checkMTU applies the DefaultMTU default (mtu <= 0) and the MinMTU floor.
func (c Codec) checkMTU(mtu int) (int, error) {
	if mtu <= 0 {
		return DefaultMTU, nil
	}
	if mtu < c.MinMTU() {
		return 0, fmt.Errorf("transport: mtu %d below the minimum %d (packet header + one coordinate)", mtu, c.MinMTU())
	}
	return mtu, nil
}

// dialBatcher opens a connected datagram socket toward addr with a batcher
// that takes up to maxFrames frames — one chunk — per Send.
func dialBatcher(addr string, maxFrames int) (*sendBatcher, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %s: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial udp %s: %w", addr, err)
	}
	b, err := newSendBatcher(conn, maxFrames)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return b, nil
}

// UDPSender pushes gradients as datagrams — the lossyMPI send endpoint. An
// optional artificial DropRate reproduces the paper's tc-based loss
// injection (loopback links do not drop on their own).
//
// The sender owns a reusable encode arena: packets are encoded in place and
// flushed a message at a time, so the steady-state send path performs zero
// allocations per packet and one trip through the kernel's UDP stack per
// message — up to 46 datagrams at DefaultMTU where the socket segments, one
// elsewhere (see Stats).
type UDPSender struct {
	mtu     int
	batcher *sendBatcher
	chunk   chunker

	dropRate float64
	rng      *rand.Rand
	dropBuf  []bool
	// pktScratch is reused across SendGradient calls so steady-state splits
	// do not allocate.
	pktScratch []Packet
}

// DialUDP creates a sender toward addr with an artificial drop rate in
// [0, 1) applied before the socket write. The MTU must fit at least the
// packet header plus one coordinate (Codec.MinMTU); zero selects
// DefaultMTU.
func DialUDP(addr string, codec Codec, mtu int, dropRate float64, seed int64) (*UDPSender, error) {
	if dropRate < 0 || dropRate >= 1 {
		return nil, fmt.Errorf("transport: drop rate %v out of [0,1)", dropRate)
	}
	mtu, err := codec.checkMTU(mtu)
	if err != nil {
		return nil, err
	}
	chunk := newChunker(codec, mtu)
	batcher, err := dialBatcher(addr, chunk.batch)
	if err != nil {
		return nil, err
	}
	return &UDPSender{
		mtu:      mtu,
		batcher:  batcher,
		chunk:    chunk,
		dropRate: dropRate,
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// Stats returns the sender's kernel-traffic counters.
func (s *UDPSender) Stats() UDPStats { return s.batcher.stats }

// ModelWorkerID tags datagrams carrying a model broadcast instead of a
// worker gradient (footnote 12: "our setup can be easily extended to support
// an unreliable communication for the model transfer"). Model broadcasts use
// a dedicated receiver socket so they never interleave with gradients.
const ModelWorkerID = 1<<30 - 1

// SendGradient splits the gradient into datagrams and writes the survivors.
func (s *UDPSender) SendGradient(m *GradientMsg) error {
	pkts := s.chunk.codec.SplitInto(s.pktScratch[:0], m, s.mtu)
	s.pktScratch = pkts
	if cap(s.dropBuf) < len(pkts) {
		s.dropBuf = make([]bool, len(pkts))
	}
	drop := s.dropBuf[:len(pkts)]
	for i := range pkts {
		// Drawn per packet in split order: the rng stream (and therefore
		// every deterministic trajectory) matches the pre-batching sender.
		drop[i] = s.dropRate > 0 && s.rng.Float64() < s.dropRate
	}
	return s.SendPackets(pkts, drop)
}

// SetPacing rate-limits the sender: after every burstBytes of datagram
// payload written, the sender sleeps for delay so the receiver can drain its
// kernel buffer. Without pacing, a paper-scale broadcast (d = 1.75M ≈ 14 MB
// of datagrams) written back-to-back overflows any realistic SO_RCVBUF — the
// kernel silently discards the excess, turning the nominally loss-free
// channel into a lossy one. Pacing changes only timing, never content, so
// deterministic trajectories are unaffected. burstBytes <= 0 disables
// pacing.
func (s *UDPSender) SetPacing(burstBytes int, delay time.Duration) {
	s.chunk.paceBurst = burstBytes
	s.chunk.paceDelay = delay
	s.chunk.burstAcc = 0
}

// SendPackets writes the given packets as datagrams, skipping index i when
// dropped[i] is true (dropped may be nil or shorter than pkts; missing
// entries mean "send"). Callers that key loss on external state — the UDP
// cluster backend drops per a (seed, step, worker)-derived schedule so both
// endpoints can evaluate it — split with Codec.SplitInto and pass the
// schedule mask here. The whole path reuses the sender's arena: zero
// allocations per packet at steady state.
func (s *UDPSender) SendPackets(pkts []Packet, dropped []bool) error {
	for lo := 0; lo < len(pkts); {
		lo = s.chunk.next(pkts, dropped, lo)
		if len(s.chunk.frames) == 0 {
			break // everything left was masked
		}
		if err := s.batcher.Send(s.chunk.frames); err != nil {
			return fmt.Errorf("transport: udp write: %w", err)
		}
		s.chunk.pace()
	}
	return nil
}

// Close releases the socket.
func (s *UDPSender) Close() error { return s.batcher.conn.Close() }

// UDPFanOut sends one split transfer to many destinations as a single
// operation with a single pacing clock — the server's model broadcast. The
// packets are walked a chunk at a time: each chunk is encoded once, into the
// fan-out's own arena, and every destination in turn is handed the same
// frames minus the ones its mask withholds (one message each where the
// socket segments), and the fan-out sleeps once when the bytes sent to each
// destination since the last sleep reach the burst. The pacing invariant is
// per destination socket — no receiver sees more than burstBytes per delay,
// which is all pacing is for — so the sleeps of a broadcast do not multiply
// with the number of destinations, and every destination starts receiving at
// once instead of waiting for the ones before it to be served in full.
type UDPFanOut struct {
	mtu   int
	chunk chunker
	dests []*sendBatcher
	share [][]byte // one destination's frames of the current chunk
}

// NewUDPFanOut builds a fan-out with no destinations yet (see Dial).
// burstBytes <= 0 disables pacing.
func NewUDPFanOut(codec Codec, mtu, burstBytes int, delay time.Duration) *UDPFanOut {
	if mtu <= 0 {
		mtu = DefaultMTU
	}
	f := &UDPFanOut{mtu: mtu, chunk: newChunker(codec, mtu)}
	f.chunk.paceBurst, f.chunk.paceDelay = burstBytes, delay
	return f
}

// Dial adds a destination; its index in Broadcast's plan is the number of
// destinations dialled before it. The socket is unpaced and loss-free: the
// fan-out paces, and a broadcast loses exactly the packets its plan masks.
func (f *UDPFanOut) Dial(addr string) error {
	if _, err := f.chunk.codec.checkMTU(f.mtu); err != nil {
		return err // as DialUDP: a sub-minimum MTU
	}
	b, err := dialBatcher(addr, f.chunk.batch)
	if err != nil {
		return err
	}
	f.dests = append(f.dests, b)
	return nil
}

// Broadcast writes pkts to every destination. plan says, per destination,
// which packet indexes to withhold (as in UDPSender.SendPackets) and whether
// to send to it at all. A chunk is accounted at its unmasked size, an upper
// bound on what any one destination received of it.
func (f *UDPFanOut) Broadcast(pkts []Packet, plan func(dest int) (dropped []bool, send bool)) error {
	for lo := 0; lo < len(pkts); {
		hi := f.chunk.next(pkts, nil, lo) // nothing skipped: frame i is packet lo+i
		for id, d := range f.dests {
			dropped, send := plan(id)
			if !send {
				continue
			}
			f.share = f.share[:0]
			for i, frame := range f.chunk.frames {
				if lo+i >= len(dropped) || !dropped[lo+i] {
					f.share = append(f.share, frame)
				}
			}
			if len(f.share) == 0 {
				continue
			}
			if err := d.Send(f.share); err != nil {
				return fmt.Errorf("destination %d: transport: udp write: %w", id, err)
			}
		}
		f.chunk.pace()
		lo = hi
	}
	return nil
}

// Stats sums the kernel-traffic counters of every destination.
func (f *UDPFanOut) Stats() UDPStats {
	var sum UDPStats
	for _, d := range f.dests {
		sum = sum.add(d.stats)
	}
	return sum
}

// Close releases every destination's socket.
func (f *UDPFanOut) Close() {
	for _, d := range f.dests {
		d.conn.Close()
	}
}

// UDPReceiver assembles datagrams back into gradients with a recoup policy —
// the lossyMPI receive endpoint. Messages are drained from the kernel in
// recvmmsg batches, a coalesced one is walked segment by segment, and the
// datagrams are handed out one at a time.
type UDPReceiver struct {
	conn    *net.UDPConn
	codec   Codec
	asm     *Reassembler
	batcher *recvBatcher
	msgs    int    // messages in the current batch
	next    int    // next unread message of the batch
	rest    []byte // undelivered datagrams of the current message
	seg     int    // their length; the last may be shorter
	// pkt is the one packet every datagram is decoded into, so a receive
	// allocates nothing at steady state.
	pkt Packet

	wireMismatches int
}

// ListenUDP binds a receive endpoint on addr ("127.0.0.1:0" for tests).
func ListenUDP(addr string, codec Codec, policy RecoupPolicy, seed int64) (*UDPReceiver, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen udp %s: %w", addr, err)
	}
	// Large receive buffer: a full gradient arrives as a burst. A request,
	// not a requirement — the kernel caps it at net.core.rmem_max (often well
	// below 8 MB) without failing, ReadBuffer says what it granted, and large
	// transfers additionally rely on sender pacing (UDPSender.SetPacing).
	_ = conn.SetReadBuffer(8 << 20)
	batcher, err := newRecvBatcher(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &UDPReceiver{
		conn:    conn,
		codec:   codec,
		asm:     NewReassembler(policy, rand.New(rand.NewSource(seed))),
		batcher: batcher,
	}, nil
}

// Addr returns the bound address.
func (r *UDPReceiver) Addr() string { return r.conn.LocalAddr().String() }

// ReadBuffer returns the socket receive buffer the kernel granted
// (getsockopt(SO_RCVBUF), in the kernel's own accounting: Linux reports
// twice the payload bytes) — what the senders' aggregate in-flight bytes
// have to stay under. 0 where the platform cannot be asked.
func (r *UDPReceiver) ReadBuffer() int { return r.batcher.readBuffer() }

// Stats returns the receiver's kernel-traffic counters.
func (r *UDPReceiver) Stats() UDPStats { return r.batcher.stats }

// WireMismatches reports how many datagrams decoded as well-formed frames
// of the WRONG coordinate width — every endpoint of a correctly configured
// deployment shares one wireFormat, so a nonzero count means a peer (or a
// spoofer) speaks the other codec. Such a datagram is skipped and counted,
// never fatal: datagrams are unauthenticated, and one forged with the wrong
// width byte must not be able to abort an honest round.
func (r *UDPReceiver) WireMismatches() int { return r.wireMismatches }

// nextSegment cuts the first datagram off a message that is a run of
// seg-byte datagrams; a message that is one datagram (seg out of range
// included) comes back whole.
func nextSegment(msg []byte, seg int) (datagram, rest []byte) {
	if seg <= 0 || seg >= len(msg) {
		return msg, nil
	}
	return msg[:seg:seg], msg[seg:]
}

// readDatagram returns the next datagram, draining the kernel in recvmmsg
// batches. The returned slice is valid until the next call.
func (r *UDPReceiver) readDatagram(deadline time.Time) ([]byte, error) {
	for len(r.rest) == 0 { // a truncated (or empty) message yields nothing
		if r.next >= r.msgs {
			if err := r.conn.SetReadDeadline(deadline); err != nil {
				return nil, fmt.Errorf("transport: set deadline: %w", err)
			}
			n, err := r.batcher.Recv()
			if err != nil {
				return nil, err
			}
			r.msgs, r.next = n, 0
		}
		r.rest, r.seg = r.batcher.Message(r.next)
		r.next++
	}
	var buf []byte
	buf, r.rest = nextSegment(r.rest, r.seg)
	r.batcher.stats.Datagrams++
	return buf, nil
}

// decode parses one datagram into the receiver's packet, tracking
// wire-format mismatches. nil means the datagram was malformed (a Byzantine
// worker can send anything) and the caller should read the next one.
func (r *UDPReceiver) decode(buf []byte) *Packet {
	err := r.codec.DecodePacketInto(&r.pkt, buf)
	if err == nil {
		return &r.pkt
	}
	if errors.Is(err, ErrWireFormat) {
		r.wireMismatches++
	}
	return nil
}

// RecvGradient blocks until one gradient completes or the timeout passes.
// On timeout, pending partial gradients are recouped per the policy; if the
// policy is DropGradient (or nothing was pending) ErrTimeout is returned.
func (r *UDPReceiver) RecvGradient(timeout time.Duration) (*GradientMsg, error) {
	deadline := time.Now().Add(timeout)
	for {
		buf, err := r.readDatagram(deadline)
		if err != nil {
			if isTimeout(err) {
				return r.flushAny()
			}
			return nil, fmt.Errorf("transport: udp read: %w", err)
		}
		pkt := r.decode(buf)
		if pkt == nil {
			continue
		}
		if msg, done := r.asm.Offer(pkt); done {
			return msg, nil
		}
	}
}

// flushAny recoups one pending gradient per the policy. Partials are flushed
// in ascending (worker, step) order — iterating the pending map directly
// would let Go's randomized map order pick *which* partial a deadline
// recoups first, and (under FillRandom's shared rng stream) with which
// values, breaking the byte-reproducibility contract whenever several
// gradients are pending at once.
func (r *UDPReceiver) flushAny() (*GradientMsg, error) {
	keys := make([][2]int, 0, len(r.asm.pending))
	for key := range r.asm.pending {
		keys = append(keys, key)
	}
	//aggrevet:stable (worker, step) keys are unique, so the two-level comparator is a total order
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		if msg, ok := r.asm.Flush(key[0], key[1]); ok {
			return msg, nil
		}
		// DropGradient: the flush discarded it; keep scanning in case
		// another partial is flushable (it will not be — same policy —
		// but the map must be drained to bound memory).
	}
	return nil, ErrTimeout
}

// RecvPacket reads datagrams until one decodes as a valid packet or the
// timeout passes (malformed datagrams are skipped — a Byzantine peer can
// send anything). The packet is NOT offered to the reassembler: callers that
// drive reassembly explicitly (cluster.UDPCluster slots gradients by worker
// id and recoups scheduled losses deterministically) pair RecvPacket with
// their own Reassembler's Offer.
//
// The returned packet is the receiver's own and is valid until the next
// RecvPacket or RecvGradient call, which decodes over it; a caller
// that keeps coordinates beyond that copies them (Reassembler.Offer does).
func (r *UDPReceiver) RecvPacket(timeout time.Duration) (*Packet, error) {
	deadline := time.Now().Add(timeout)
	for {
		buf, err := r.readDatagram(deadline)
		if err != nil {
			if isTimeout(err) {
				return nil, ErrTimeout
			}
			return nil, fmt.Errorf("transport: udp read: %w", err)
		}
		if pkt := r.decode(buf); pkt != nil {
			return pkt, nil
		}
	}
}

// Close releases the socket.
func (r *UDPReceiver) Close() error { return r.conn.Close() }

func isTimeout(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, os.ErrDeadlineExceeded)
}
