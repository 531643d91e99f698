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

// Datagram batch sizing. One sendmmsg/recvmmsg moves up to udpBatch
// datagrams; the receive arena reserves a full 64 KiB slot per datagram
// because the sender's MTU is not negotiated (a UDP payload can be up to
// 65507 bytes and recvmmsg truncates anything beyond the slot).
const (
	udpBatch       = 16
	udpRecvBufSize = 65536
)

// UDPSender pushes gradients as datagrams — the lossyMPI send endpoint. An
// optional artificial DropRate reproduces the paper's tc-based loss
// injection (loopback links do not drop on their own).
//
// The sender owns a reusable encode arena: packets are encoded in place and
// flushed in sendmmsg batches, so the steady-state send path performs zero
// allocations per packet and ~1/udpBatch syscalls per datagram.
type UDPSender struct {
	conn    *net.UDPConn
	codec   Codec
	mtu     int
	batcher *sendBatcher

	dropRate float64
	rng      *rand.Rand
	dropBuf  []bool
	// pktScratch is reused across SendGradient calls so steady-state splits
	// do not allocate.
	pktScratch []Packet

	// Encode arena for the current batch: frames are subslices of arena, so
	// the arena is sized for a full batch up front and only an oversized
	// hand-built packet can force a flush-then-grow.
	arena        []byte
	frames       [][]byte
	pendingBytes int

	// Pacing state: a datagram burst larger than the receiver's kernel
	// buffer is silently truncated by the kernel (the "loss-free" channel
	// genuinely drops). SetPacing bounds the burst rate.
	paceBurst int
	paceDelay time.Duration
	burstAcc  int
}

// DialUDP creates a sender toward addr with an artificial drop rate in
// [0, 1) applied before the socket write. The MTU must fit at least the
// packet header plus one coordinate (Codec.MinMTU); zero selects
// DefaultMTU.
func DialUDP(addr string, codec Codec, mtu int, dropRate float64, seed int64) (*UDPSender, error) {
	if dropRate < 0 || dropRate >= 1 {
		return nil, fmt.Errorf("transport: drop rate %v out of [0,1)", dropRate)
	}
	if mtu <= 0 {
		mtu = DefaultMTU
	}
	if mtu < codec.MinMTU() {
		return nil, fmt.Errorf("transport: mtu %d below the minimum %d (packet header + one coordinate)",
			mtu, codec.MinMTU())
	}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %s: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial udp %s: %w", addr, err)
	}
	batcher, err := newSendBatcher(conn, udpBatch)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &UDPSender{
		conn:     conn,
		codec:    codec,
		mtu:      mtu,
		batcher:  batcher,
		dropRate: dropRate,
		rng:      rand.New(rand.NewSource(seed)),
		arena:    make([]byte, 0, udpBatch*mtu),
		frames:   make([][]byte, 0, udpBatch),
	}, nil
}

// LocalAddr returns the sender's bound local address (the dial interface —
// the cluster derives the worker model-endpoint bind host from it).
func (s *UDPSender) LocalAddr() string { return s.conn.LocalAddr().String() }

// Batched reports whether this sender batches datagram syscalls (false on
// platforms without sendmmsg).
func (s *UDPSender) Batched() bool { return batchedSyscalls }

// ModelWorkerID tags datagrams carrying a model broadcast instead of a
// worker gradient (footnote 12: "our setup can be easily extended to support
// an unreliable communication for the model transfer"). Model broadcasts use
// a dedicated receiver socket so they never interleave with gradients.
const ModelWorkerID = 1<<30 - 1

// SendModel pushes a model broadcast over the lossy channel by reusing the
// gradient chunking with the reserved ModelWorkerID.
func (s *UDPSender) SendModel(m *ModelMsg) error {
	return s.SendGradient(&GradientMsg{Worker: ModelWorkerID, Step: m.Step, Grad: m.Params})
}

// SendGradient splits the gradient into datagrams and writes the survivors.
func (s *UDPSender) SendGradient(m *GradientMsg) error {
	pkts := s.codec.SplitInto(s.pktScratch[:0], m, s.mtu)
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
	s.paceBurst = burstBytes
	s.paceDelay = delay
	s.burstAcc = 0
}

// SendPackets writes the given packets as datagrams, skipping index i when
// dropped[i] is true (dropped may be nil or shorter than pkts; missing
// entries mean "send"). Callers that key loss on external state — the UDP
// cluster backend drops per a (seed, step, worker)-derived schedule so both
// endpoints can evaluate it — split with Codec.SplitInto and pass the
// schedule mask here. The whole path reuses the sender's arena: zero
// allocations per packet at steady state.
func (s *UDPSender) SendPackets(pkts []Packet, dropped []bool) error {
	for i := range pkts {
		if i < len(dropped) && dropped[i] {
			continue // the tc stand-in: this datagram "was lost"
		}
		if err := s.enqueue(&pkts[i]); err != nil {
			return err
		}
	}
	return s.flush()
}

// SendPacket writes one already-split packet immediately, bypassing the
// sender's own drop injection.
func (s *UDPSender) SendPacket(p *Packet) error {
	if err := s.enqueue(p); err != nil {
		return err
	}
	return s.flush()
}

// enqueue encodes p into the arena and flushes when the batch is full or
// the pacing burst boundary is reached.
func (s *UDPSender) enqueue(p *Packet) error {
	need := s.codec.PacketWireLen(p)
	if len(s.frames) > 0 && cap(s.arena)-len(s.arena) < need {
		// Growing the arena would reallocate it and dangle the frames
		// already queued (only possible for oversized hand-built packets —
		// split packets fit the MTU budget the arena was sized for).
		if err := s.flush(); err != nil {
			return err
		}
	}
	start := len(s.arena)
	s.arena = s.codec.AppendPacket(s.arena, p)
	s.frames = append(s.frames, s.arena[start:])
	s.pendingBytes += len(s.arena) - start
	if len(s.frames) == udpBatch ||
		(s.paceBurst > 0 && s.burstAcc+s.pendingBytes >= s.paceBurst) {
		return s.flush()
	}
	return nil
}

// flush writes the queued batch and applies pacing.
func (s *UDPSender) flush() error {
	if len(s.frames) == 0 {
		return nil
	}
	err := s.batcher.Send(s.frames)
	s.frames = s.frames[:0]
	s.arena = s.arena[:0]
	s.burstAcc += s.pendingBytes
	s.pendingBytes = 0
	if err != nil {
		return fmt.Errorf("transport: udp write: %w", err)
	}
	if s.paceBurst > 0 && s.burstAcc >= s.paceBurst {
		s.burstAcc = 0
		time.Sleep(s.paceDelay)
	}
	return nil
}

// Close releases the socket.
func (s *UDPSender) Close() error { return s.conn.Close() }

// UDPFanOut sends one split transfer to many destinations as a single
// operation with a single pacing clock — the server's model broadcast. The
// packets are walked in chunks of at most udpBatch; each chunk goes to every
// destination in turn (one sendmmsg each), and the fan-out sleeps once when
// the bytes sent to each destination since the last sleep reach the burst.
// The pacing invariant is per destination socket — no receiver sees more
// than burstBytes per delay, which is all pacing is for (see
// UDPSender.SetPacing) — so the sleeps of a broadcast do not multiply with
// the number of destinations, and every destination starts receiving at
// once instead of waiting for the ones before it to be served in full.
type UDPFanOut struct {
	codec     Codec
	mtu       int
	dests     []*UDPSender
	paceBurst int
	paceDelay time.Duration
	burstAcc  int                 // bytes per destination since the last sleep; carries across broadcasts
	sleep     func(time.Duration) // time.Sleep; tests count the calls
}

// NewUDPFanOut builds a fan-out with no destinations yet (see Dial).
// burstBytes <= 0 disables pacing.
func NewUDPFanOut(codec Codec, mtu, burstBytes int, delay time.Duration) *UDPFanOut {
	return &UDPFanOut{codec: codec, mtu: mtu, paceBurst: burstBytes, paceDelay: delay, sleep: time.Sleep}
}

// Dial adds a destination; its index in Broadcast's plan is the number of
// destinations dialled before it.
func (f *UDPFanOut) Dial(addr string) error {
	// Unpaced and loss-free: the fan-out paces, and a broadcast loses exactly
	// the packets its plan masks.
	//aggrevet:lineage drop rate 0: the sender's rng is never drawn, loss comes from the plan's masks
	s, err := DialUDP(addr, f.codec, f.mtu, 0, 0)
	if err != nil {
		return err
	}
	f.dests = append(f.dests, s)
	return nil
}

// Broadcast writes pkts to every destination. plan says, per destination,
// which packet indexes to withhold (as in UDPSender.SendPackets) and whether
// to send to it at all. A chunk is accounted at its unmasked size, an upper
// bound on what any one destination received of it.
func (f *UDPFanOut) Broadcast(pkts []Packet, plan func(dest int) (dropped []bool, send bool)) error {
	for lo := 0; lo < len(pkts); {
		// The chunk ends at the batch size or at the packet that reaches the
		// burst, whichever comes first — the same two boundaries at which a
		// paced UDPSender flushes.
		hi, bytes := lo, 0
		for hi < len(pkts) && hi-lo < udpBatch && (f.paceBurst <= 0 || f.burstAcc+bytes < f.paceBurst) {
			bytes += f.codec.PacketWireLen(&pkts[hi])
			hi++
		}
		for id, s := range f.dests {
			dropped, send := plan(id)
			if !send {
				continue
			}
			if err := s.SendPackets(pkts[lo:hi], dropped[min(lo, len(dropped)):]); err != nil {
				return fmt.Errorf("destination %d: %w", id, err)
			}
		}
		f.burstAcc += bytes
		if f.paceBurst > 0 && f.burstAcc >= f.paceBurst {
			f.burstAcc = 0
			f.sleep(f.paceDelay)
		}
		lo = hi
	}
	return nil
}

// Close releases every destination's socket.
func (f *UDPFanOut) Close() {
	for _, s := range f.dests {
		s.Close()
	}
}

// UDPReceiver assembles datagrams back into gradients with a recoup policy —
// the lossyMPI receive endpoint. Datagrams are drained from the kernel in
// recvmmsg batches and handed out one at a time.
type UDPReceiver struct {
	conn    *net.UDPConn
	codec   Codec
	asm     *Reassembler
	batcher *recvBatcher
	batched int // datagrams in the current batch
	next    int // next undelivered datagram in the batch
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
	// Large receive buffer: a full gradient arrives as a burst. The kernel
	// caps this request at net.core.rmem_max (often well below 8 MB), so
	// large transfers additionally rely on sender pacing — see
	// UDPSender.SetPacing.
	_ = conn.SetReadBuffer(8 << 20)
	batcher, err := newRecvBatcher(conn, udpBatch, udpRecvBufSize)
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

// WireMismatches reports how many datagrams decoded as well-formed frames
// of the WRONG coordinate width — every endpoint of a correctly configured
// deployment shares one wireFormat, so a nonzero count means a peer (or a
// spoofer) speaks the other codec. Such a datagram is skipped and counted,
// never fatal: datagrams are unauthenticated, and one forged with the wrong
// width byte must not be able to abort an honest round.
func (r *UDPReceiver) WireMismatches() int { return r.wireMismatches }

// readDatagram returns the next datagram, draining the kernel in recvmmsg
// batches. The returned slice is valid until the next call.
func (r *UDPReceiver) readDatagram(deadline time.Time) ([]byte, error) {
	if r.next >= r.batched {
		if err := r.conn.SetReadDeadline(deadline); err != nil {
			return nil, fmt.Errorf("transport: set deadline: %w", err)
		}
		n, err := r.batcher.Recv()
		if err != nil {
			return nil, err
		}
		r.batched, r.next = n, 0
	}
	buf := r.batcher.Datagram(r.next)
	r.next++
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
// Reassembler().Offer.
//
// The returned packet is the receiver's own and is valid until the next
// RecvPacket, RecvGradient or RecvModel call, which decodes over it; a caller
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

// Reassembler exposes the receiver's reassembly state for callers that drive
// packet collection explicitly through RecvPacket.
func (r *UDPReceiver) Reassembler() *Reassembler { return r.asm }

// RecvModel blocks until one model broadcast completes or the timeout
// passes, with the same recoup semantics as RecvGradient. Datagrams not
// carrying the ModelWorkerID tag are rejected as malformed.
func (r *UDPReceiver) RecvModel(timeout time.Duration) (*ModelMsg, error) {
	msg, err := r.RecvGradient(timeout)
	if err != nil {
		return nil, err
	}
	if msg.Worker != ModelWorkerID {
		return nil, fmt.Errorf("%w: expected model broadcast, got gradient from worker %d",
			ErrBadFrame, msg.Worker)
	}
	return &ModelMsg{Step: msg.Step, Params: msg.Grad}, nil
}

// Pending exposes the number of partially assembled gradients.
func (r *UDPReceiver) Pending() int { return r.asm.Pending() }

// Close releases the socket.
func (r *UDPReceiver) Close() error { return r.conn.Close() }

func isTimeout(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, os.ErrDeadlineExceeded)
}
