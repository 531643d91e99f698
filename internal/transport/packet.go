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

// packetHeaderLen is the one wire header, which every datagram and every
// TCP frame opens with: magic u32 | version u8 | width u8 | worker u32 |
// step u64 | loss f64 | dim u32 | offset u32 | count u32. The width byte
// self-describes the coordinate encoding, so endpoint codec mismatches decode
// to ErrWireFormat instead of a silent length-check drop.
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

// LostCoords returns how many coordinates of a dim-coordinate transfer, per
// to a packet, the scheduled-drop mask drops (indexes beyond the mask, or
// past the transfer's last packet, drop nothing). A transfer is complete
// when it is 0, and anything of it arrives when it is below dim.
func LostCoords(mask []bool, dim, per int) int {
	lost := 0
	for pkt, dropped := range mask {
		if dropped && pkt*per < dim {
			lost += min(per, dim-pkt*per)
		}
	}
	return lost
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
		out = make([]Packet, 0, c.PacketsPerTransfer(dim, mtu))
	}
	for off := 0; off < dim || (dim == 0 && off == 0); off += per {
		hi := off + per
		if hi > dim {
			hi = dim
		}
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
		grown := make([]byte, n, n+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:n+need]
	c.putHeader(dst[n:], p, len(p.Coords))
	c.putCoords(dst[n+packetHeaderLen:], p.Coords)
	return dst
}

// putHeader writes the header of a message carrying count coordinates from
// p.Offset on, with p's metadata, into dst — the one header writer, for a
// datagram (AppendPacket) and for a TCP frame (TCPConn.open) alike.
func (c Codec) putHeader(dst []byte, p *Packet, count int) {
	binary.LittleEndian.PutUint32(dst[0:], Magic)
	dst[4] = Version
	dst[5] = byte(c.BytesPerCoord())
	binary.LittleEndian.PutUint32(dst[6:], uint32(p.Worker))
	binary.LittleEndian.PutUint64(dst[10:], uint64(p.Step))
	binary.LittleEndian.PutUint64(dst[18:], math.Float64bits(p.Loss))
	binary.LittleEndian.PutUint32(dst[26:], uint32(p.Dim))
	binary.LittleEndian.PutUint32(dst[30:], uint32(p.Offset))
	binary.LittleEndian.PutUint32(dst[34:], uint32(count))
}

// parseHeader is the one place that decides what a well-formed header is,
// for a datagram in memory (DecodePacketInto) and for a TCP frame a stream
// has read only this much of (TCPConn): msgLen is the message's total
// length, hdr its first bytes — the whole header unless msgLen is shorter.
// It returns the metadata in a packet without coordinates and the coordinate
// count msgLen pays for. It runs before anything coordinate-sized exists, so
// a forged header costs its sender nothing but the message.
func (c Codec) parseHeader(hdr []byte, msgLen int) (h Packet, count int, err error) {
	if msgLen < packetHeaderLen {
		return Packet{}, 0, fmt.Errorf("%w: message too short (%d bytes)", ErrBadFrame, msgLen)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != Magic {
		return Packet{}, 0, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if hdr[4] != Version {
		return Packet{}, 0, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, hdr[4])
	}
	// A width other than 4 or 8 is malformed; a well-formed width that
	// differs from the codec's is a wire-format mismatch.
	switch w := int(hdr[5]); {
	case w != 4 && w != 8:
		return Packet{}, 0, fmt.Errorf("%w: unknown coordinate width %d", ErrBadFrame, w)
	case w != c.BytesPerCoord():
		return Packet{}, 0, fmt.Errorf("%w: message carries %d-byte coords, codec expects %d",
			ErrWireFormat, w, c.BytesPerCoord())
	}
	count = int(binary.LittleEndian.Uint32(hdr[34:]))
	if want := packetHeaderLen + count*c.BytesPerCoord(); msgLen != want {
		return Packet{}, 0, fmt.Errorf("%w: message %d bytes, want %d", ErrBadFrame, msgLen, want)
	}
	h = Packet{
		Worker: int(binary.LittleEndian.Uint32(hdr[6:])),
		Step:   int(binary.LittleEndian.Uint64(hdr[10:])),
		Loss:   math.Float64frombits(binary.LittleEndian.Uint64(hdr[18:])),
		Dim:    int(binary.LittleEndian.Uint32(hdr[26:])),
		Offset: int(binary.LittleEndian.Uint32(hdr[30:])),
	}
	if h.Offset+count > h.Dim {
		return Packet{}, 0, fmt.Errorf("%w: range [%d,%d) outside dim %d", ErrBadFrame, h.Offset, h.Offset+count, h.Dim)
	}
	return h, count, nil
}

// DecodePacket parses AppendPacket output into a fresh packet.
func (c Codec) DecodePacket(buf []byte) (*Packet, error) {
	p := &Packet{}
	if err := c.DecodePacketInto(p, buf); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodePacketInto parses AppendPacket output into p, reusing the capacity
// of p.Coords: a receiver that decodes every datagram into one Packet
// allocates nothing at steady state. Nothing of p's previous content
// survives — on an error p is left empty (zero header, no coordinates).
func (c Codec) DecodePacketInto(p *Packet, buf []byte) error {
	h, count, err := c.parseHeader(buf, len(buf))
	h.Coords = p.Coords[:0]
	*p = h
	if err != nil {
		return err
	}
	if cap(p.Coords) < count {
		p.Coords = tensor.NewVector(count)
	}
	p.Coords = p.Coords[:count]
	c.getCoords(buf[packetHeaderLen:], p.Coords)
	return nil
}

// EncodeGradient renders a gradient message as one whole-message datagram:
// a TCP frame's bytes after its length prefix.
func (c Codec) EncodeGradient(m *GradientMsg) []byte {
	return c.AppendPacket(nil, &Packet{Worker: m.Worker, Step: m.Step, Loss: m.Loss, Dim: len(m.Grad), Coords: m.Grad})
}

// EncodeModel renders a model broadcast as one whole-message datagram: a TCP
// frame's bytes after its length prefix.
func (c Codec) EncodeModel(m *ModelMsg) []byte {
	return c.AppendPacket(nil, &Packet{Worker: ModelWorkerID, Step: m.Step, Dim: len(m.Params), Coords: m.Params})
}

// modelTagged reports whether p's header is a model broadcast's: tagged
// ModelWorkerID, with loss bits 0 — the server sends no loss, and comparing
// bits lets no NaN through.
func modelTagged(p *Packet) bool {
	return p.Worker == ModelWorkerID && math.Float64bits(p.Loss) == 0
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
// paper-scale 1.75M-parameter model. The round engine pins its deployment's
// exact dimension before a packet reaches its partials.
const DefaultMaxDim = 1 << 24

// Reassembler collects packets into gradients, one Partial per pending
// (worker, step). One Reassembler serves one receive endpoint; it is not
// safe for concurrent use (wrap externally).
type Reassembler struct {
	policy RecoupPolicy
	rng    *rand.Rand
	maxDim int
	// evictions counts pending partials rebuilt because a later packet's
	// metadata conflicted with the pinned first packet (see Offer).
	evictions int
	// pending maps (worker, step) to partial gradients.
	pending map[[2]int]*Partial
}

// Partial is one gradient under reassembly: its coordinates, an arrival
// bitmap (coordinate i is bit i%64 of word i/64), how many coordinates have
// not arrived and the loss its first packet pinned. A Reassembler keeps one
// per pending (worker, step), each in a vector of its own; the round engine
// keeps one per worker slot, in the slot's row, so a chunked submission
// lands where the rule reads it. The zero value is empty.
type Partial struct {
	grad     tensor.Vector
	received []uint64
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
func (part *Partial) fillMissing(fill func(coord int) float64) {
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

// Offer feeds one packet into the partial. A packet whose coordinate range
// falls outside its own Dim is refused (ok=false) and changes nothing:
// DecodePacketInto never yields one, a hand-built packet might. An empty
// partial — or one whose pinned metadata p contradicts: another Dim, or
// another Loss compared bitwise so NaN losses stay consistent, which evicted
// reports — first (re)starts from p, in row when row is p.Dim long and in a
// fresh vector otherwise; the bitmap's memory is reused. missing is how many
// coordinates have still not arrived: at 0, Take returns the whole gradient.
func (part *Partial) Offer(p *Packet, row tensor.Vector) (missing int, evicted, ok bool) {
	if p.Offset < 0 || p.Offset+len(p.Coords) > p.Dim {
		return part.missing, false, false // malformed range: never index or allocate with it
	}
	evicted = part.grad != nil && (p.Dim != len(part.grad) || math.Float64bits(p.Loss) != math.Float64bits(part.loss))
	if part.grad == nil || evicted {
		if row == nil || len(row) != p.Dim {
			row = tensor.NewVector(p.Dim)
		}
		words := (p.Dim + 63) / 64
		if cap(part.received) < words {
			part.received = make([]uint64, words)
		}
		part.received = part.received[:words]
		clear(part.received)
		part.grad, part.missing, part.loss = row, p.Dim, p.Loss
	}
	copy(part.grad[p.Offset:], p.Coords)
	part.missing -= setRange(part.received, p.Offset, p.Offset+len(p.Coords))
	return part.missing, evicted, true
}

// Empty reports whether no gradient is under reassembly.
func (part *Partial) Empty() bool { return part.grad == nil }

// Take ends the reassembly: it writes fill(i) into every coordinate i whose
// packet never arrived, in ascending coordinate order (fill may be nil when
// none is missing), empties the partial and returns the gradient and its
// loss. The gradient is the vector Offer started in.
func (part *Partial) Take(fill func(coord int) float64) (grad tensor.Vector, loss float64) {
	if part.missing > 0 {
		part.fillMissing(fill)
	}
	grad, loss = part.grad, part.loss
	part.Discard()
	return grad, loss
}

// Discard empties the partial without delivering anything, keeping its
// bitmap's memory for the next.
func (part *Partial) Discard() { part.grad, part.missing, part.loss = nil, 0, 0 }

// NewReassembler builds a reassembler with the given recoup policy. rng is
// required for FillRandom and ignored otherwise.
func NewReassembler(policy RecoupPolicy, rng *rand.Rand) *Reassembler {
	if policy == FillRandom && rng == nil {
		panic("transport: FillRandom requires an rng")
	}
	return &Reassembler{policy: policy, rng: rng, maxDim: DefaultMaxDim, pending: map[[2]int]*Partial{}}
}

// Offer feeds one packet. When the packet completes its gradient, the
// finished message is returned with done=true and the state released.
//
// Validation happens in two tiers. Packets that are malformed in isolation —
// claimed dimensions beyond the allocation bound (see DefaultMaxDim — a
// spoofed huge Dim must not OOM the process), or a coordinate range that
// would index the arrival mask out of bounds — are rejected outright,
// exactly like DecodePacket refuses a malformed datagram.
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
	if p.Dim > r.maxDim || p.Offset < 0 || p.Offset+len(p.Coords) > p.Dim {
		return nil, false // malformed range: never index or allocate with it
	}
	key := [2]int{p.Worker, p.Step}
	part, ok := r.pending[key]
	if !ok {
		part = &Partial{}
		r.pending[key] = part
	}
	missing, evicted, _ := part.Offer(p, nil)
	if evicted {
		r.evictions++
	}
	if missing > 0 {
		return nil, false
	}
	delete(r.pending, key)
	grad, loss := part.Take(nil)
	return &GradientMsg{Worker: p.Worker, Step: p.Step, Loss: loss, Grad: grad}, true
}

// Flush force-completes the pending gradient for (worker, step) using the
// recoup policy: the deadline path when the remaining packets are presumed
// lost. ok=false means nothing was pending, or the policy is DropGradient
// (the partial state is discarded either way).
func (r *Reassembler) Flush(worker, step int) (msg *GradientMsg, ok bool) {
	switch r.policy {
	case FillNaN:
		return r.FlushFill(worker, step, func(int) float64 { return math.NaN() })
	case FillRandom:
		return r.FlushFill(worker, step, func(int) float64 { return r.rng.NormFloat64() })
	}
	delete(r.pending, [2]int{worker, step})
	return nil, false
}

// FlushFill force-completes the pending gradient for (worker, step), writing
// fill(i) into every coordinate i whose packet never arrived, in ascending
// coordinate order. Unlike Flush it bypasses the reassembler-wide policy and
// rng, so a caller can key the recoup values on state of its own. ok=false
// means nothing was pending.
func (r *Reassembler) FlushFill(worker, step int, fill func(coord int) float64) (msg *GradientMsg, ok bool) {
	key := [2]int{worker, step}
	part, exists := r.pending[key]
	if !exists {
		return nil, false
	}
	delete(r.pending, key)
	grad, loss := part.Take(fill)
	return &GradientMsg{Worker: worker, Step: step, Loss: loss, Grad: grad}, true
}
