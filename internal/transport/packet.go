package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"aggregathor/internal/tensor"
)

// Packet is one UDP datagram's worth of gradient: a contiguous coordinate
// range with a self-describing header. Every packet repeats the gradient
// metadata (worker, step, total dimension) — this is the "reliability scheme
// for metadata" of §3.3: no separate metadata channel has to survive loss,
// and the sequence information (Offset) lets the receiver place out-of-order
// packets correctly.
type Packet struct {
	Worker int
	Step   int
	// Loss is the sender's training loss, repeated in every packet like the
	// rest of the gradient metadata so it survives the loss of any strict
	// subset of the datagrams.
	Loss   float64
	Dim    int // total gradient dimension
	Offset int // first coordinate carried
	Coords tensor.Vector
}

// packetHeaderLen is magic u32 | version u8 | width u8 | worker u32 |
// step u64 | loss f64 | dim u32 | offset u32 | count u32. The width byte
// (wire v4) self-describes the coordinate encoding so endpoint codec
// mismatches decode to ErrWireFormat instead of a silent length-check drop.
const packetHeaderLen = 4 + 1 + 1 + 4 + 8 + 8 + 4 + 4 + 4

// DefaultMTU is the conventional Ethernet payload budget for one datagram.
const DefaultMTU = 1400

// MinMTU returns the smallest datagram payload budget that still carries
// the packet header plus one coordinate under codec c. Endpoints must
// reject anything smaller: CoordsPerPacket clamps to one coordinate per
// packet, so a sub-minimum MTU would make every datagram silently exceed
// the configured budget instead of honouring it.
func (c Codec) MinMTU() int {
	return packetHeaderLen + c.BytesPerCoord()
}

// CoordsPerPacket returns how many coordinates fit a datagram of the given
// MTU under codec c.
func (c Codec) CoordsPerPacket(mtu int) int {
	n := (mtu - packetHeaderLen) / c.BytesPerCoord()
	if n < 1 {
		n = 1
	}
	return n
}

// PacketsPerTransfer returns how many datagrams one dim-coordinate
// transfer occupies at the given MTU — the quantity both endpoints of the
// scheduled-loss protocol must agree on (drop masks are indexed by packet
// number), so it lives here rather than being re-derived at each site.
func (c Codec) PacketsPerTransfer(dim, mtu int) int {
	per := c.CoordsPerPacket(mtu)
	count := (dim + per - 1) / per
	if count == 0 {
		count = 1
	}
	return count
}

// CountSurvivors returns how many of the pktCount packets of one transfer
// are not masked out by the scheduled-drop mask (indexes beyond the mask
// survive).
func CountSurvivors(mask []bool, pktCount int) int {
	surv := 0
	for i := 0; i < pktCount; i++ {
		if i >= len(mask) || !mask[i] {
			surv++
		}
	}
	return surv
}

// Split chunks a gradient message into MTU-sized packets.
func (c Codec) Split(m *GradientMsg, mtu int) []Packet {
	return c.SplitInto(nil, m, mtu)
}

// SplitInto chunks a gradient message into MTU-sized packets, appending to
// dst (which may be a reused scratch slice with dst[:0]) so steady-state
// senders split without allocating. The packets alias m.Grad.
func (c Codec) SplitInto(dst []Packet, m *GradientMsg, mtu int) []Packet {
	per := c.CoordsPerPacket(mtu)
	dim := len(m.Grad)
	out := dst
	if out == nil {
		//aggrevet:alloc cold path for one-shot Split(nil, ...); steady-state senders pass a reused scratch slice
		out = make([]Packet, 0, c.PacketsPerTransfer(dim, mtu))
	}
	for off := 0; off < dim || (dim == 0 && off == 0); off += per {
		hi := off + per
		if hi > dim {
			hi = dim
		}
		//aggrevet:alloc appends within PacketsPerTransfer capacity when the scratch slice is warm; growth is amortized
		out = append(out, Packet{
			Worker: m.Worker,
			Step:   m.Step,
			Loss:   m.Loss,
			Dim:    dim,
			Offset: off,
			Coords: m.Grad[off:hi],
		})
		if dim == 0 {
			break
		}
	}
	return out
}

// PacketWireLen returns the datagram payload size of p on the wire.
func (c Codec) PacketWireLen(p *Packet) int {
	return packetHeaderLen + len(p.Coords)*c.BytesPerCoord()
}

// AppendPacket appends the wire encoding of p to dst and returns the
// extended slice. When dst has enough capacity the encode allocates nothing,
// which is what lets senders reuse one arena across every packet of every
// round (the send-path extension of the gar.Workspace zero-alloc contract).
func (c Codec) AppendPacket(dst []byte, p *Packet) []byte {
	n := len(dst)
	need := c.PacketWireLen(p)
	if cap(dst)-n < need {
		//aggrevet:alloc arena grow path, amortized to zero: SendAllocs CI gate holds the send path at 0 allocs/packet
		grown := make([]byte, n, n+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:n+need]
	buf := dst[n:]
	binary.LittleEndian.PutUint32(buf[0:], Magic)
	buf[4] = Version
	buf[5] = byte(c.BytesPerCoord())
	binary.LittleEndian.PutUint32(buf[6:], uint32(p.Worker))
	binary.LittleEndian.PutUint64(buf[10:], uint64(p.Step))
	binary.LittleEndian.PutUint64(buf[18:], math.Float64bits(p.Loss))
	binary.LittleEndian.PutUint32(buf[26:], uint32(p.Dim))
	binary.LittleEndian.PutUint32(buf[30:], uint32(p.Offset))
	binary.LittleEndian.PutUint32(buf[34:], uint32(len(p.Coords)))
	c.putCoords(buf[packetHeaderLen:], p.Coords)
	return dst
}

// EncodePacket renders a packet as a freshly allocated datagram payload.
// Steady-state senders should prefer AppendPacket with a reused arena.
func (c Codec) EncodePacket(p *Packet) []byte {
	return c.AppendPacket(make([]byte, 0, c.PacketWireLen(p)), p)
}

// DecodePacket parses EncodePacket output into a fresh packet.
func (c Codec) DecodePacket(buf []byte) (*Packet, error) {
	p := &Packet{}
	if err := c.DecodePacketInto(p, buf); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodePacketInto parses EncodePacket output into p, reusing the capacity
// of p.Coords: a receiver that decodes every datagram into one Packet
// allocates nothing at steady state. Nothing of p's previous content
// survives — on an error p is left empty (zero header, no coordinates).
func (c Codec) DecodePacketInto(p *Packet, buf []byte) error {
	*p = Packet{Coords: p.Coords[:0]}
	if len(buf) < packetHeaderLen {
		return fmt.Errorf("%w: packet too short (%d bytes)", ErrBadFrame, len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:]) != Magic {
		return fmt.Errorf("%w: bad packet magic", ErrBadFrame)
	}
	if buf[4] != Version {
		return fmt.Errorf("%w: unsupported packet version %d", ErrBadFrame, buf[4])
	}
	if err := c.checkWidth(buf[5]); err != nil {
		return err
	}
	count := int(binary.LittleEndian.Uint32(buf[34:]))
	want := packetHeaderLen + count*c.BytesPerCoord()
	if len(buf) != want {
		return fmt.Errorf("%w: packet %d bytes, want %d", ErrBadFrame, len(buf), want)
	}
	dim := int(binary.LittleEndian.Uint32(buf[26:]))
	offset := int(binary.LittleEndian.Uint32(buf[30:]))
	if offset < 0 || offset+count > dim {
		return fmt.Errorf("%w: packet range [%d,%d) outside dim %d", ErrBadFrame, offset, offset+count, dim)
	}
	p.Worker = int(binary.LittleEndian.Uint32(buf[6:]))
	p.Step = int(binary.LittleEndian.Uint64(buf[10:]))
	p.Loss = math.Float64frombits(binary.LittleEndian.Uint64(buf[18:]))
	p.Dim, p.Offset = dim, offset
	if cap(p.Coords) < count {
		p.Coords = tensor.NewVector(count)
	}
	p.Coords = p.Coords[:count]
	c.getCoords(buf[packetHeaderLen:], p.Coords)
	return nil
}

// RecoupPolicy selects what the receive endpoint does about coordinates
// whose packets never arrived (§3.3).
type RecoupPolicy int

const (
	// DropGradient discards the whole gradient if any packet was lost —
	// the straightforward solution, safe with any GAR but wasteful.
	DropGradient RecoupPolicy = iota
	// FillNaN marks lost coordinates NaN for selective averaging.
	FillNaN
	// FillRandom writes random values into lost coordinates and lets the
	// Byzantine-resilient GAR upstairs absorb them — the AggregaThor way.
	FillRandom
)

// String implements fmt.Stringer.
func (p RecoupPolicy) String() string {
	switch p {
	case DropGradient:
		return "drop-gradient"
	case FillNaN:
		return "fill-nan"
	case FillRandom:
		return "fill-random"
	default:
		return fmt.Sprintf("RecoupPolicy(%d)", int(p))
	}
}

// DefaultMaxDim bounds the gradient dimension a reassembler will allocate
// state for: a datagram header is attacker-controlled, and without a bound a
// single spoofed packet claiming Dim ≈ 2³² would make the first Offer
// allocate tens of gigabytes and abort the process — a one-datagram remote
// OOM. The default leaves an order of magnitude of headroom over the
// paper-scale 1.75M-parameter model; endpoints that know their deployment's
// exact dimension should tighten it with SetMaxDim.
const DefaultMaxDim = 1 << 24

// Reassembler collects packets into gradients. One Reassembler serves one
// receive endpoint; it is not safe for concurrent use (wrap externally).
type Reassembler struct {
	policy RecoupPolicy
	rng    *rand.Rand
	maxDim int
	// expectDim, when set, pins the exact gradient dimension the endpoint
	// accepts — packets claiming any other Dim are rejected outright.
	expectDim int
	// evictions counts pending partials rebuilt because a later packet's
	// metadata conflicted with the pinned first packet (see Offer).
	evictions int
	// pending maps (worker, step) to partial gradients.
	pending map[[2]int]*partial
}

type partial struct {
	grad     tensor.Vector
	received []uint64 // arrival bitmap: coordinate i is bit i%64 of word i/64
	missing  int
	loss     float64 // metadata repeated in every packet; pinned by the first
}

// setRange marks coordinates [lo, hi) arrived a word at a time and returns
// how many of them were not marked before.
func setRange(words []uint64, lo, hi int) (added int) {
	for lo < hi {
		end := min((lo|63)+1, hi)
		mask := ^uint64(0) >> (64 - (end - lo)) << (lo & 63)
		added += bits.OnesCount64(mask &^ words[lo>>6])
		words[lo>>6] |= mask
		lo = end
	}
	return added
}

// fillMissing writes fill(i) into every coordinate i not marked arrived, in
// ascending order.
func (part *partial) fillMissing(fill func(coord int) float64) {
	for w, word := range part.received {
		for free := ^word; free != 0; free &= free - 1 {
			i := w<<6 + bits.TrailingZeros64(free)
			if i >= len(part.grad) {
				break
			}
			part.grad[i] = fill(i)
		}
	}
}

// NewReassembler builds a reassembler with the given recoup policy. rng is
// required for FillRandom and ignored otherwise.
func NewReassembler(policy RecoupPolicy, rng *rand.Rand) *Reassembler {
	if policy == FillRandom && rng == nil {
		panic("transport: FillRandom requires an rng")
	}
	return &Reassembler{policy: policy, rng: rng, maxDim: DefaultMaxDim, pending: map[[2]int]*partial{}}
}

// SetMaxDim tightens the allocation bound on claimed gradient dimensions
// (default DefaultMaxDim). Endpoints that know the deployment's exact model
// dimension should set it so a spoofed header cannot make them allocate
// anything larger; d <= 0 is ignored.
func (r *Reassembler) SetMaxDim(d int) {
	if d > 0 {
		r.maxDim = d
	}
}

// SetExpectDim pins the exact gradient dimension of the deployment: packets
// claiming any other Dim are rejected before they touch reassembly state,
// and the allocation bound tightens to match. Endpoints that know their
// model dimension (the cluster server and workers do) should always pin it —
// it closes the whole Dim axis of header spoofing. d <= 0 clears the pin.
func (r *Reassembler) SetExpectDim(d int) {
	r.expectDim = d
	if d > 0 {
		r.maxDim = d
	}
}

// Evictions reports how many pending partials were evicted and rebuilt
// because of conflicting packet metadata — nonzero means a peer sent
// self-inconsistent packets for the same (worker, step), i.e. somebody is
// spoofing.
func (r *Reassembler) Evictions() int { return r.evictions }

// Offer feeds one packet. When the packet completes its gradient, the
// finished message is returned with done=true and the state released.
//
// Validation happens in two tiers. Packets that are malformed in isolation —
// claimed dimensions beyond the allocation bound (see DefaultMaxDim — a
// spoofed huge Dim must not OOM the process), a Dim other than the pinned
// SetExpectDim, or a coordinate range that would index the arrival mask out
// of bounds — are rejected outright, exactly like DecodePacket refuses a
// malformed datagram.
//
// Packets that are self-consistent but conflict with the metadata pinned by
// the partial's first packet (Dim, or the repeated Loss compared bitwise so
// NaN losses stay consistent) EVICT the pending partial, and reassembly
// restarts from the conflicting packet. Rejecting the newcomer instead —
// the previous behaviour — let one spoofed datagram racing ahead of an
// honest worker's burst pin garbage metadata under the honest (worker,
// step) key, so every genuine packet was "a conflict" and the honest
// gradient was recouped as lost: a one-datagram censorship of an honest
// worker, violating the f-Byzantine budget. With eviction the spoof costs
// at most the coordinates already banked (the deadline recoup covers them);
// it can no longer wedge the key for the round.
func (r *Reassembler) Offer(p *Packet) (msg *GradientMsg, done bool) {
	if p.Dim < 0 || p.Dim > r.maxDim || p.Offset < 0 || p.Offset+len(p.Coords) > p.Dim {
		return nil, false // malformed range: never index or allocate with it
	}
	if r.expectDim > 0 && p.Dim != r.expectDim {
		return nil, false // deployment dimension is pinned: anything else is spoofed
	}
	key := [2]int{p.Worker, p.Step}
	part, ok := r.pending[key]
	if ok && (p.Dim != len(part.grad) || math.Float64bits(p.Loss) != math.Float64bits(part.loss)) {
		ok = false // conflicting metadata: evict and rebuild from this packet
		r.evictions++
	}
	if !ok {
		part = &partial{
			grad:     tensor.NewVector(p.Dim),
			received: make([]uint64, (p.Dim+63)/64),
			missing:  p.Dim,
			loss:     p.Loss,
		}
		r.pending[key] = part
	}
	copy(part.grad[p.Offset:], p.Coords)
	part.missing -= setRange(part.received, p.Offset, p.Offset+len(p.Coords))
	if part.missing > 0 {
		return nil, false
	}
	delete(r.pending, key)
	return &GradientMsg{Worker: p.Worker, Step: p.Step, Loss: part.loss, Grad: part.grad}, true
}

// Flush force-completes the pending gradient for (worker, step) using the
// recoup policy: the deadline path when the remaining packets are presumed
// lost. ok=false means nothing was pending, or the policy is DropGradient
// (the partial state is discarded either way).
func (r *Reassembler) Flush(worker, step int) (msg *GradientMsg, ok bool) {
	key := [2]int{worker, step}
	part, exists := r.pending[key]
	if !exists {
		return nil, false
	}
	delete(r.pending, key)
	switch r.policy {
	case DropGradient:
		return nil, false
	case FillNaN:
		part.fillMissing(func(int) float64 { return math.NaN() })
	case FillRandom:
		part.fillMissing(func(int) float64 { return r.rng.NormFloat64() })
	}
	return &GradientMsg{Worker: worker, Step: step, Loss: part.loss, Grad: part.grad}, true
}

// FlushFill force-completes the pending gradient for (worker, step), writing
// fill(i) into every coordinate i whose packet never arrived, in ascending
// coordinate order. Unlike Flush it bypasses the reassembler-wide policy and
// rng, which is what lets a caller key the recoup values on external state —
// cluster.UDPCluster seeds them per (run seed, step, worker) so a lossy round
// stays a pure function of the configuration. ok=false means nothing was
// pending.
func (r *Reassembler) FlushFill(worker, step int, fill func(coord int) float64) (msg *GradientMsg, ok bool) {
	key := [2]int{worker, step}
	part, exists := r.pending[key]
	if !exists {
		return nil, false
	}
	delete(r.pending, key)
	part.fillMissing(fill)
	return &GradientMsg{Worker: worker, Step: step, Loss: part.loss, Grad: part.grad}, true
}

// Discard drops the pending gradient for (worker, step) without delivering
// anything — the DropGradient deadline outcome, independent of the
// reassembler-wide policy. It reports whether a partial was pending.
func (r *Reassembler) Discard(worker, step int) bool {
	key := [2]int{worker, step}
	if _, exists := r.pending[key]; !exists {
		return false
	}
	delete(r.pending, key)
	return true
}

// Missing returns how many coordinates of the pending (worker, step) gradient
// have not arrived yet; ok=false means no partial is pending under that key.
func (r *Reassembler) Missing(worker, step int) (n int, ok bool) {
	part, exists := r.pending[[2]int{worker, step}]
	if !exists {
		return 0, false
	}
	return part.missing, true
}

// Pending returns how many gradients are partially assembled.
func (r *Reassembler) Pending() int { return len(r.pending) }

// DropStale discards every partial older than the given step — housekeeping
// so a silent Byzantine worker cannot grow server memory without bound.
func (r *Reassembler) DropStale(beforeStep int) int {
	dropped := 0
	//aggrevet:ordered every partial below the step is deleted and only counted; the effect is order-independent
	for key := range r.pending {
		if key[1] < beforeStep {
			delete(r.pending, key)
			dropped++
		}
	}
	return dropped
}
