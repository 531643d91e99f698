package transport

import "aggregathor/internal/tensor"

// Model-broadcast collection bounds.
const (
	// DefaultModelWindow caps how many distinct future broadcasts a
	// collector buffers while the current one is unsettled. Datagrams are
	// unauthenticated: without a cap, spoofed packets claiming distinct
	// future steps would each pin a maxDim-sized partial indefinitely. A
	// full window gives way to a nearer step, so far spoofs hold it only
	// until genuine broadcasts arrive ahead of the expected one.
	DefaultModelWindow = 3
	// modelHorizon caps how far past the step it is waiting for a collector
	// admits a broadcast. The window above bounds how many future broadcasts
	// are held, not how far ahead one claims to be, and after a genuine loss
	// the collector jumps to the earliest one that arrived whole — so without
	// this cap one forged complete broadcast claiming step 2^40 carries the
	// worker there: lost to every genuine round for good, and handing its
	// caller a step whose plan takes that many steps to reach. A worker falls
	// behind by at most the rounds the server runs inside one round timeout,
	// far fewer than this; a forged jump inside the horizon costs the worker
	// the rounds up to it and its caller a bounded replay.
	modelHorizon = 1 << 16
)

// ModelEvent is one settled model broadcast, in step order.
type ModelEvent struct {
	// Step is the broadcast's model-update index.
	Step int
	// Params is the assembled model, non-nil only when Complete: the vector
	// Offer was given while the broadcast was the expected one, else one of
	// the collector's own (a broadcast buffered ahead of the expected one).
	Params tensor.Vector
	// Complete reports that every packet of the broadcast arrived.
	Complete bool
	// Torn reports a broadcast settled at its scheduled survivors: the
	// remaining packets were dropped by the shared schedule and can never
	// arrive, so the collector settles immediately — no deadline. What to
	// do about the missing coordinates (skip the round, train on a stale
	// model) is the caller's recoup decision.
	Torn bool
	// Lost reports a broadcast the schedule cannot explain: its caller's
	// deadline passed (Expire) on packets that should have survived
	// (genuine kernel loss or reordering). The partial has been evicted;
	// the caller should not submit for this round and let the server's
	// round deadline absorb it. When the collector catches up over a
	// range of lost broadcasts (a buffered later broadcast already
	// resolved), a single Lost event stands for the whole skipped range.
	Lost bool
}

// ModelCollectorConfig parameterises a ModelCollector.
type ModelCollectorConfig struct {
	// Dim is the model dimension — known statically at both endpoints, so
	// the packet count per broadcast is too.
	Dim int
	// MTU is the datagram payload budget (0 = DefaultMTU).
	MTU int
	// Codec selects the wire coordinate width.
	Codec Codec
	// Schedule returns the downlink drop mask for one broadcast step —
	// mask[i] true means packet i was dropped at the server before the
	// write and can never arrive. nil means the channel is loss-free. It is
	// called with steps taken from unauthenticated datagrams, so it must
	// cost the same for any step: a mask keyed per step, never a timeline
	// replayed up to it (a caller with such state uses SkipTo instead).
	Schedule func(step int) []bool
}

// ModelCollector is the worker side of lossy model broadcasts, the mirror of
// the server's round engine: it does no I/O and reads no clock. Its caller
// offers every received datagram, reads the expected broadcast's outcome off
// Settled, and calls Expire when its own deadline passes. It admits only
// model-tagged datagrams for current-or-future steps (no further ahead than
// modelHorizon) and settles each broadcast by the rule the round engine
// settles a gradient by: resolved once every coordinate not scheduled to be
// dropped is in — complete when the schedule dropped nothing, torn
// otherwise. The schedule is shared with the server, so a torn broadcast
// needs no deadline; only a loss the schedule cannot account for does.
//
// Every admitted packet is one copy of its coordinates into their final
// memory: the expected broadcast lands in the caller's vector (a worker's
// replica), so assembling it allocates nothing and loading it copies nothing.
//
// It bounds every resource a hostile datagram stream could grow: only
// packets on the broadcast's own grid are admitted, partials older than the
// settled step are evicted, and at most DefaultModelWindow future-step
// partials are buffered, the nearest steps first (the expected step is
// always admitted, so spam cannot wedge a legitimate broadcast).
type ModelCollector struct {
	cfg      ModelCollectorConfig
	per      int
	pktCount int
	expected int
	pending  map[int]*modelPending
	// free holds released partials whose arrival bitmaps the next broadcast
	// reuses.
	free []*modelPending
	// lost is the step of the Lost event Expire left for Settled (-1: none);
	// ev is the event Settled hands out.
	lost int
	ev   ModelEvent
	// Single-entry memo for dropMask: advance() consults the expected
	// step's mask on every settlement check, and at paper scale one
	// schedule evaluation draws pktCount RNG values.
	maskStep int
	maskVal  []bool
	maskLost int
}

// modelPending is one broadcast under reassembly, tracked from its first
// admitted packet on. It is resolved once the coordinates still missing are
// exactly the ones its mask drops — the comparison the round engine makes
// against a slot's planned loss.
//
// The outcome is stashed until expected reaches this step. A future
// broadcast resolving is NOT taken as proof the server skipped ahead — a
// single spoofed datagram could otherwise fast-forward the worker past
// every legitimate round. Only Expire advances past an unresolved expected
// step.
type modelPending struct {
	mask []bool // scheduled drop mask (nil = loss-free)
	lost int    // coordinates the mask drops
	part Partial
}

func (p *modelPending) resolved() bool { return p.part.missing == p.lost }

// NewModelCollector builds a collector for broadcasts of cfg.Dim ≥ 1
// coordinates.
func NewModelCollector(cfg ModelCollectorConfig) *ModelCollector {
	if cfg.Dim < 1 {
		panic("transport: ModelCollector of dimension < 1")
	}
	if cfg.MTU <= 0 {
		cfg.MTU = DefaultMTU
	}
	return &ModelCollector{
		cfg:      cfg,
		per:      cfg.Codec.CoordsPerPacket(cfg.MTU),
		pktCount: cfg.Codec.PacketsPerTransfer(cfg.Dim, cfg.MTU),
		pending:  map[int]*modelPending{},
		lost:     -1,
		maskStep: -1,
	}
}

// dropMask evaluates the shared schedule for one step and counts the
// coordinates it drops (memoised per step — the schedule is a pure
// function).
func (mc *ModelCollector) dropMask(step int) ([]bool, int) {
	if mc.cfg.Schedule == nil {
		return nil, 0
	}
	if step != mc.maskStep {
		mc.maskStep = step
		mc.maskVal = mc.cfg.Schedule(step)
		mc.maskLost = LostCoords(mc.maskVal, mc.cfg.Dim, mc.per)
	}
	return mc.maskVal, mc.maskLost
}

// advance skips broadcasts whose every packet is a scheduled drop: no
// datagram for them will ever arrive, so there is nothing to wait for and
// nothing to report (the server, evaluating the same schedule, recoups
// those rounds without waiting either).
func (mc *ModelCollector) advance() {
	for {
		if _, lost := mc.dropMask(mc.expected); lost < mc.cfg.Dim {
			return
		}
		mc.expected++
	}
}

// release stops tracking the broadcast at step s.
func (mc *ModelCollector) release(s int) {
	if p := mc.pending[s]; p != nil {
		p.part.Discard()
		mc.free = append(mc.free, p)
		delete(mc.pending, s)
	}
}

// Offer feeds one received datagram. A packet of the expected broadcast
// lands in into, which must hold Dim coordinates; one of a later broadcast
// in a vector of the collector's own. Everything the deployment's server
// cannot have sent is ignored: a gradient-tagged or loss-carrying header,
// another dimension, a step already settled or past the horizon, a range off
// the broadcast's packet grid, an index the schedule dropped, a new future
// step past the farthest one a full window holds (a nearer one evicts that
// farthest partial).
func (mc *ModelCollector) Offer(pkt *Packet, into tensor.Vector) {
	if len(into) != mc.cfg.Dim {
		panic("transport: ModelCollector.Offer into a vector of the wrong dimension")
	}
	mc.advance()
	s := pkt.Step
	if !modelTagged(pkt) || pkt.Dim != mc.cfg.Dim || s < mc.expected || s-mc.expected > modelHorizon {
		return
	}
	// Model packets follow a rigid grid — offset idx·per, full-size except
	// the tail. Anything else cannot have come from the server's Split.
	idx := pkt.Offset / mc.per
	if pkt.Offset < 0 || pkt.Offset%mc.per != 0 || idx >= mc.pktCount ||
		len(pkt.Coords) != min(mc.per, mc.cfg.Dim-pkt.Offset) {
		return
	}
	// An index the schedule dropped at the server before the write has no
	// genuine datagram. Rejecting the spoof keeps attacker coordinates out
	// of the masked region of a torn broadcast (which could otherwise
	// complete and masquerade as a loss-free delivery) and keeps missing ≥
	// lost, so resolution is exact.
	masked := func(mask []bool) bool { return idx < len(mask) && mask[idx] }
	p := mc.pending[s]
	switch {
	case p != nil && (p.resolved() || masked(p.mask)):
		return // a duplicate after resolution, or a masked index
	case p == nil && mc.windowFull(s) && s > mc.farthest():
		return // future-broadcast cap; the expected step always admits
	case p == nil:
		mask, lost := mc.dropMask(s)
		if lost == mc.cfg.Dim || masked(mask) {
			return // nothing of step s can arrive, or not this index: spoofed
		}
		if mc.windowFull(s) {
			// A nearer step evicts the farthest: spoofs claiming far
			// steps cannot lock out the genuine broadcasts that arrive
			// ahead of the expected one.
			mc.release(mc.farthest())
		}
		if n := len(mc.free); n > 0 {
			p, mc.free = mc.free[n-1], mc.free[:n-1]
		} else {
			p = &modelPending{}
		}
		p.mask, p.lost = mask, lost
		mc.pending[s] = p
	}
	if s != mc.expected {
		into = nil // a buffered broadcast never writes the caller's vector
	}
	p.part.Offer(pkt, into)
}

// windowFull reports whether admitting a new partial for step s would pass
// the future-broadcast cap.
func (mc *ModelCollector) windowFull(s int) bool {
	return s != mc.expected && len(mc.pending) >= DefaultModelWindow
}

// farthest is the latest step under reassembly.
func (mc *ModelCollector) farthest() int {
	far := mc.expected
	//aggrevet:ordered computes the maximum pending step, an order-independent reduction
	for s := range mc.pending {
		far = max(far, s)
	}
	return far
}

// Settled returns the next settled broadcast, in step order, or nil while
// the expected one is still unresolved. Steps the schedule dropped entirely
// are skipped silently. The event is the collector's own and is valid until
// the next call (its Params vector is the caller's to keep).
func (mc *ModelCollector) Settled() *ModelEvent {
	if mc.lost >= 0 {
		mc.ev, mc.lost = ModelEvent{Step: mc.lost, Lost: true}, -1
		return &mc.ev
	}
	mc.advance()
	p := mc.pending[mc.expected]
	if p == nil || !p.resolved() {
		return nil
	}
	mc.ev = ModelEvent{Step: mc.expected, Torn: p.lost > 0}
	if !mc.ev.Torn {
		mc.ev.Complete = true
		mc.ev.Params, _ = p.part.Take(nil)
	}
	mc.release(mc.expected)
	mc.expected++
	return &mc.ev
}

// InFlight reports whether any broadcast is under reassembly: what the
// caller's deadline bounds.
func (mc *ModelCollector) InFlight() bool { return len(mc.pending) > 0 }

// Expire gives up on the expected broadcast: its caller's deadline passed
// on packets the schedule says survived — genuine loss. The broadcast's
// partial is evicted and the next Settled reports it Lost. If a LATER
// broadcast already resolved in the buffer, the collector jumps straight to
// it: a fully settled broadcast is proof the server moved past everything
// older, and a suspected worker must catch up faster than the server's round
// cadence to ever rejoin. With no such evidence it advances exactly one
// step, so a hostile datagram stream cannot fast-forward the worker. Expire
// does nothing while Settled has an event to hand out or nothing is in
// flight.
func (mc *ModelCollector) Expire() {
	mc.advance()
	if p := mc.pending[mc.expected]; mc.lost >= 0 || !mc.InFlight() || p != nil && p.resolved() {
		return
	}
	mc.lost = mc.expected
	target, found := mc.expected+1, false
	//aggrevet:ordered computes the minimum resolved step, an order-independent reduction
	for s, p := range mc.pending {
		if s > mc.expected && p.resolved() && (!found || s < target) {
			target, found = s, true
		}
	}
	mc.SkipTo(target)
}

// SkipTo moves the collector on to the broadcast at step, for a caller that
// knows no earlier one is coming (a worker the churn schedule holds down is
// not broadcast to). Anything buffered for the skipped steps is released;
// datagrams for them are late duplicates from now on. A step at or behind
// the expected one is a no-op.
func (mc *ModelCollector) SkipTo(step int) {
	if step <= mc.expected {
		return
	}
	//aggrevet:ordered every entry below step is discarded regardless of visit order
	for s := range mc.pending {
		if s < step {
			mc.release(s)
		}
	}
	mc.expected = step
}
