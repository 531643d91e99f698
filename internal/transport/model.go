package transport

import (
	"errors"
	"time"

	"aggregathor/internal/tensor"
)

// Model-broadcast collection defaults.
const (
	// DefaultBroadcastTimeout bounds the wait for the remaining packets of
	// an in-flight model broadcast. A packet the schedule says survived but
	// that never arrives was genuinely lost (kernel buffer overflow on a
	// large burst) — without this bound the endpoint would pin the torn
	// partial and block until the idle timeout (previously one hour).
	DefaultBroadcastTimeout = 30 * time.Second
	// DefaultModelWindow caps how many distinct future broadcasts a
	// collector buffers while the current one is unsettled. Datagrams are
	// unauthenticated: without a cap, spoofed packets claiming distinct
	// future steps would each pin a maxDim-sized partial indefinitely.
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
	// Next was given when the broadcast was the one it waited for, else one
	// of the collector's own (a broadcast buffered ahead of the expected one).
	Params tensor.Vector
	// Complete reports that every packet of the broadcast arrived.
	Complete bool
	// Torn reports a broadcast settled at its scheduled survivors: the
	// remaining packets were dropped by the shared schedule and can never
	// arrive, so the collector settles immediately — no deadline. What to
	// do about the missing coordinates (skip the round, train on a stale
	// model) is the caller's recoup decision.
	Torn bool
	// Lost reports a broadcast the schedule cannot explain: packets that
	// should have survived never arrived within the broadcast timeout
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
	// BroadcastTimeout bounds the wait once a broadcast is in flight
	// (0 = DefaultBroadcastTimeout). With none in flight the wait is one
	// hour, the cluster worker's backstop against a server that vanished
	// without closing the socket.
	BroadcastTimeout time.Duration
}

// ModelCollector drives worker-side reassembly of lossy model broadcasts:
// it pumps packets from the receive endpoint, admits only model-tagged
// datagrams for current-or-future steps (no further ahead than
// modelHorizon), and settles each broadcast the moment its fate is known —
// complete when every packet is in, torn the moment all scheduled survivors
// are in (the schedule is shared with the server, so no deadline is needed),
// lost when the broadcast timeout passes on packets the schedule cannot
// account for.
//
// Every admitted packet is one copy of its coordinates into their final
// memory: the expected broadcast lands in the caller's vector (a worker's
// replica), so assembling it allocates nothing and loading it copies nothing.
//
// Unlike the plain RecvModel path it bounds every resource a hostile
// datagram stream could grow: only packets on the broadcast's own grid are
// admitted, partials older than the settled step are evicted, and at most
// DefaultModelWindow future-step partials are buffered (the expected step is
// always admitted, so spam cannot wedge a legitimate broadcast).
type ModelCollector struct {
	recv     *UDPReceiver
	cfg      ModelCollectorConfig
	per      int
	pktCount int
	expected int
	pending  map[int]*modelPending
	// free holds released partials whose arrival flags the next broadcast
	// reuses.
	free []*modelPending
	// queue holds settled broadcasts not handed out yet, oldest at head;
	// ev is the event Next hands out.
	queue []ModelEvent
	head  int
	ev    ModelEvent
	// deadline is the wall-clock bound on the in-flight expected broadcast
	// (zero = unarmed). It is a real deadline, not a per-read quiet period:
	// unrelated traffic — later broadcasts, spoofed or gradient-tagged
	// datagrams — keeps arriving in a live cluster and must not be able to
	// postpone the genuine-loss eviction indefinitely.
	deadline time.Time
	// Single-entry memo for dropMask: advance() consults the expected
	// step's mask on every received packet, and at paper scale one
	// schedule evaluation draws pktCount RNG values.
	maskStep int
	maskVal  []bool
	maskSurv int
}

type modelPending struct {
	mask []bool        // scheduled drop mask (nil = loss-free)
	buf  tensor.Vector // where the coordinates land
	got  []bool        // per-packet arrival
	// need counts the scheduled survivors not in yet: at zero the broadcast
	// is resolved — complete, or torn when the schedule dropped any packet.
	//
	// The outcome is stashed until expected reaches this step. A future
	// broadcast resolving is NOT taken as proof the server skipped ahead —
	// a single spoofed datagram could otherwise fast-forward the worker
	// past every legitimate round. Only the bounded per-broadcast timeout
	// advances past an unresolved expected step.
	need int
	torn bool
}

func (p *modelPending) resolved() bool { return p.need == 0 }

// admit starts tracking the broadcast at step s: in into when it is the
// expected one, else in a vector of its own.
func (mc *ModelCollector) admit(s int, mask []bool, surv int, into tensor.Vector) *modelPending {
	var p *modelPending
	if n := len(mc.free); n > 0 {
		p, mc.free = mc.free[n-1], mc.free[:n-1]
		clear(p.got)
	} else {
		p = &modelPending{got: make([]bool, mc.pktCount)}
	}
	p.mask, p.need, p.torn, p.buf = mask, surv, surv < mc.pktCount, into
	if s != mc.expected {
		p.buf = tensor.NewVector(mc.cfg.Dim)
	}
	mc.pending[s] = p
	return p
}

// release stops tracking the broadcast at step s.
func (mc *ModelCollector) release(s int) {
	if p := mc.pending[s]; p != nil {
		p.buf = nil
		mc.free = append(mc.free, p)
		delete(mc.pending, s)
	}
}

// NewModelCollector builds a collector over the receive endpoint.
func NewModelCollector(r *UDPReceiver, cfg ModelCollectorConfig) *ModelCollector {
	if cfg.MTU <= 0 {
		cfg.MTU = DefaultMTU
	}
	if cfg.BroadcastTimeout <= 0 {
		cfg.BroadcastTimeout = DefaultBroadcastTimeout
	}
	return &ModelCollector{
		recv:     r,
		cfg:      cfg,
		per:      cfg.Codec.CoordsPerPacket(cfg.MTU),
		pktCount: cfg.Codec.PacketsPerTransfer(cfg.Dim, cfg.MTU),
		pending:  map[int]*modelPending{},
		maskStep: -1,
	}
}

// dropMask evaluates the shared schedule for one step and counts survivors
// (memoised per step — the schedule is a pure function).
func (mc *ModelCollector) dropMask(step int) ([]bool, int) {
	if mc.cfg.Schedule == nil {
		return nil, mc.pktCount
	}
	if step != mc.maskStep {
		mc.maskStep = step
		mc.maskVal = mc.cfg.Schedule(step)
		mc.maskSurv = CountSurvivors(mc.maskVal, mc.pktCount)
	}
	return mc.maskVal, mc.maskSurv
}

// advance skips broadcasts whose every packet is a scheduled drop: no
// datagram for them will ever arrive, so there is nothing to wait for and
// nothing to report (the server, evaluating the same schedule, recoups
// those rounds without waiting either).
func (mc *ModelCollector) advance() {
	for {
		if _, surv := mc.dropMask(mc.expected); surv > 0 {
			return
		}
		mc.expected++
	}
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
	mc.deadline = time.Time{} // progress: the broadcast at step gets a fresh bound
	mc.flushResolved()        // it may have arrived whole already
}

// Next blocks until the next broadcast settles and returns it. Broadcasts
// are reported in step order; fully-scheduled-away steps are skipped
// silently. The error is ErrTimeout when the idle timeout passes with no
// broadcast in flight, or the socket error when the endpoint is closed.
//
// The broadcast Next waits for is received into into, which must hold Dim
// coordinates: a complete one comes back with Params aliasing it. A torn or
// lost broadcast may leave some of its coordinates there. The returned event
// is the collector's own and is valid until the next call (its Params vector
// is the caller's to keep).
func (mc *ModelCollector) Next(into tensor.Vector) (*ModelEvent, error) {
	if len(into) != mc.cfg.Dim {
		panic("transport: ModelCollector.Next into a vector of the wrong dimension")
	}
	for {
		if mc.head < len(mc.queue) {
			mc.ev, mc.queue[mc.head] = mc.queue[mc.head], ModelEvent{}
			if mc.head++; mc.head == len(mc.queue) {
				mc.queue, mc.head = mc.queue[:0], 0 // drained: the capacity serves the next broadcast
			}
			return &mc.ev, nil
		}
		mc.advance()
		timeout := time.Hour
		if len(mc.pending) > 0 {
			// Arm (or keep) the wall-clock bound on the in-flight
			// broadcast. time.Until — not a fresh BroadcastTimeout per
			// read — so a stream of ignorable datagrams cannot postpone
			// the genuine-loss eviction forever.
			if mc.deadline.IsZero() {
				mc.deadline = time.Now().Add(mc.cfg.BroadcastTimeout)
			}
			timeout = time.Until(mc.deadline)
		} else {
			mc.deadline = time.Time{}
		}
		var pkt *Packet
		var err error
		if timeout <= 0 {
			err = ErrTimeout
		} else {
			pkt, err = mc.recv.RecvPacket(timeout)
		}
		if err != nil {
			if errors.Is(err, ErrTimeout) && len(mc.pending) > 0 {
				// Bounded per-broadcast wait: packets the schedule says
				// survived never arrived — genuine loss. Declare the
				// expected broadcast lost (one coalesced Lost event) and
				// evict its partial instead of pinning it until the idle
				// timeout. If a LATER broadcast already resolved in the
				// buffer, jump straight to it: a fully settled broadcast
				// is proof the server moved past everything older, and a
				// suspected worker must catch up faster than the server's
				// round cadence to ever rejoin. With no such evidence,
				// advance exactly one step, so a hostile datagram stream
				// cannot fast-forward the worker.
				mc.release(mc.expected)
				mc.queue = append(mc.queue, ModelEvent{Step: mc.expected, Lost: true})
				target := -1
				//aggrevet:ordered computes the minimum resolved step, an order-independent reduction
				for s, p := range mc.pending {
					if s > mc.expected && p.resolved() && (target < 0 || s < target) {
						target = s
					}
				}
				if target < 0 {
					target = mc.expected + 1
				}
				mc.SkipTo(target)
				continue
			}
			return nil, err
		}
		if !modelTagged(pkt) || pkt.Dim != mc.cfg.Dim {
			// A gradient-tagged or loss-carrying spoof on the model
			// endpoint, or the wrong dimension for the deployment: refused
			// before its coordinates land.
			continue
		}
		s := pkt.Step
		if s < mc.expected {
			continue // late duplicate of an already-settled broadcast
		}
		if s-mc.expected > modelHorizon {
			continue // further ahead than any genuine broadcast can be: spoofed
		}
		// Model packets follow a rigid grid — offset idx·per, full-size
		// except the tail. Anything else cannot have come from the
		// server's Split: reject it.
		if pkt.Offset%mc.per != 0 {
			continue
		}
		idx := pkt.Offset / mc.per
		want := mc.per
		if idx == mc.pktCount-1 {
			want = mc.cfg.Dim - idx*mc.per
		}
		if idx >= mc.pktCount || len(pkt.Coords) != want {
			continue
		}
		p := mc.pending[s]
		if p == nil {
			if s != mc.expected && len(mc.pending) >= DefaultModelWindow {
				continue // future-broadcast cap; the expected step always admits
			}
			mask, surv := mc.dropMask(s)
			if surv == 0 {
				continue // schedule says nothing of step s can arrive: spoofed
			}
			p = mc.admit(s, mask, surv, into)
		}
		if p.resolved() {
			continue // duplicate after resolution
		}
		if p.mask != nil && idx < len(p.mask) && p.mask[idx] {
			// The schedule dropped this index at the server before the
			// write, so no genuine datagram for it exists. Rejecting the
			// spoof here keeps attacker coordinates out of the masked
			// region of a torn broadcast (which could otherwise complete
			// and masquerade as a loss-free delivery) and makes the
			// arrival count a faithful survivor tally.
			continue
		}
		copy(p.buf[pkt.Offset:], pkt.Coords)
		if !p.got[idx] {
			// Once every scheduled survivor is in, the rest can never
			// arrive: a torn broadcast resolves now — no deadline.
			p.got[idx] = true
			p.need--
		}
		mc.flushResolved()
	}
}

// flushResolved settles broadcasts strictly in step order: while the
// expected step's outcome is known, pop it into the event queue and move
// on (skipping steps the schedule dropped entirely). Future broadcasts
// stay stashed until the expected step resolves or times out.
func (mc *ModelCollector) flushResolved() {
	for {
		mc.advance()
		p := mc.pending[mc.expected]
		if p == nil || !p.resolved() {
			return
		}
		ev := ModelEvent{Step: mc.expected, Torn: p.torn}
		if !p.torn {
			ev.Complete, ev.Params = true, p.buf
		}
		mc.release(mc.expected)
		mc.queue = append(mc.queue, ev)
		mc.expected++
		mc.deadline = time.Time{} // progress: next broadcast gets a fresh bound
	}
}
