package transport

import (
	"errors"
	"math"
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
	// Params is the assembled model, non-nil only when Complete.
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
	// (0 = DefaultBroadcastTimeout).
	BroadcastTimeout time.Duration
	// IdleTimeout bounds the wait with no broadcast in flight
	// (0 = one hour, the cluster worker's backstop against a server that
	// vanished without closing the socket).
	IdleTimeout time.Duration
	// Window caps buffered future broadcasts (0 = DefaultModelWindow).
	Window int
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
// Unlike the plain RecvModel path it bounds every resource a hostile
// datagram stream could grow: gradient-tagged packets are filtered before
// they reach the reassembler, partials older than the settled step are
// evicted, and at most Window future-step partials are buffered (the
// expected step is always admitted, so spam cannot wedge a legitimate
// broadcast).
type ModelCollector struct {
	recv     *UDPReceiver
	cfg      ModelCollectorConfig
	per      int
	pktCount int
	expected int
	pending  map[int]*modelPending
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
	mask []bool // scheduled drop mask (nil = loss-free)
	// lost is the scheduled lost-coordinate count: the broadcast is torn-
	// resolved the moment the reassembler's missing count equals it — the
	// same invariant the server uses (missing == lostCoords) on the
	// gradient uplink, so no parallel packet bookkeeping is needed.
	lost int

	// Resolved outcome, stashed until expected reaches this step. A future
	// broadcast resolving is NOT taken as proof the server skipped ahead —
	// a single spoofed datagram could otherwise fast-forward the worker
	// past every legitimate round. Only the bounded per-broadcast timeout
	// advances past an unresolved expected step.
	params tensor.Vector // complete broadcast (non-nil)
	torn   bool          // settled at its scheduled survivors
}

func (p *modelPending) resolved() bool { return p.params != nil || p.torn }

// NewModelCollector builds a collector over the receive endpoint. The
// receiver's reassembler is driven exclusively through the collector from
// then on.
func NewModelCollector(r *UDPReceiver, cfg ModelCollectorConfig) *ModelCollector {
	if cfg.MTU <= 0 {
		cfg.MTU = DefaultMTU
	}
	if cfg.BroadcastTimeout <= 0 {
		cfg.BroadcastTimeout = DefaultBroadcastTimeout
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = time.Hour
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultModelWindow
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
	for s, p := range mc.pending {
		if s < step {
			if !p.resolved() {
				mc.recv.Reassembler().Discard(ModelWorkerID, s)
			}
			delete(mc.pending, s)
		}
	}
	mc.expected = step
	mc.deadline = time.Time{} // progress: the broadcast at step gets a fresh bound
	mc.flushResolved()        // it may have arrived whole already
}

// Next blocks until the next broadcast settles and returns it. Broadcasts
// are reported in step order; fully-scheduled-away steps are skipped
// silently. The error is ErrTimeout when the idle timeout passes with no
// broadcast in flight, or the socket error when the endpoint is closed. The
// returned event is the collector's own and is valid until the next call
// (its Params vector is the caller's to keep).
func (mc *ModelCollector) Next() (*ModelEvent, error) {
	for {
		if mc.head < len(mc.queue) {
			mc.ev, mc.queue[mc.head] = mc.queue[mc.head], ModelEvent{}
			if mc.head++; mc.head == len(mc.queue) {
				mc.queue, mc.head = mc.queue[:0], 0 // drained: the capacity serves the next broadcast
			}
			return &mc.ev, nil
		}
		mc.advance()
		timeout := mc.cfg.IdleTimeout
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
				if p := mc.pending[mc.expected]; p != nil {
					mc.recv.Reassembler().Discard(ModelWorkerID, mc.expected)
					delete(mc.pending, mc.expected)
				}
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
		if pkt.Worker != ModelWorkerID {
			continue // gradient-tagged spoof on the model endpoint
		}
		if pkt.Dim != mc.cfg.Dim {
			continue // wrong dimension for the deployment: spoofed
		}
		if math.Float64bits(pkt.Loss) != 0 {
			// Model broadcasts carry no loss metadata — the server always
			// sends Loss 0 — so a nonzero loss marks a spoof. Filtering it
			// here (bitwise, so a NaN cannot slip through) matters since the
			// reassembler evicts-and-rebuilds on metadata conflicts: without
			// the filter one hostile datagram with garbage Loss could evict
			// a genuine in-flight broadcast partial.
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
		// server's Split: reject it before it reaches the reassembler.
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
			if s != mc.expected && len(mc.pending) >= mc.cfg.Window {
				continue // future-broadcast cap; the expected step always admits
			}
			mask, surv := mc.dropMask(s)
			if surv == 0 {
				continue // schedule says nothing of step s can arrive: spoofed
			}
			p = &modelPending{mask: mask, lost: mc.lostCoords(mask)}
			mc.pending[s] = p
		}
		if p.resolved() {
			continue // duplicate after resolution
		}
		if p.mask != nil && idx < len(p.mask) && p.mask[idx] {
			// The schedule dropped this index at the server before the
			// write, so no genuine datagram for it exists. Rejecting the
			// spoof here keeps attacker coordinates out of the masked
			// region of a torn broadcast (which could otherwise complete
			// in the reassembler and masquerade as a loss-free delivery)
			// and makes the reassembler's missing count a faithful
			// survivor tally.
			continue
		}
		asm := mc.recv.Reassembler()
		msg, done := asm.Offer(pkt)
		switch {
		case done:
			p.params = msg.Grad
		default:
			// Same invariant as the server's uplink settlement: once the
			// missing count equals the scheduled lost-coordinate count,
			// every survivor is in and the rest can never arrive. Resolve
			// torn now — no deadline. (Spoofed packets the reassembler
			// rejects leave the missing count untouched, so they cannot
			// fake this.)
			if missing, ok := asm.Missing(ModelWorkerID, s); ok && p.lost > 0 && missing == p.lost {
				asm.Discard(ModelWorkerID, s)
				p.torn = true
			}
		}
		mc.flushResolved()
	}
}

// lostCoords returns how many coordinates of one broadcast the scheduled
// drop mask removes — the torn-resolution threshold for the reassembler's
// missing count.
func (mc *ModelCollector) lostCoords(mask []bool) int {
	lost := 0
	for idx := 0; idx < mc.pktCount; idx++ {
		if idx < len(mask) && mask[idx] {
			w := mc.cfg.Dim - idx*mc.per
			if w > mc.per {
				w = mc.per
			}
			lost += w
		}
	}
	return lost
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
		ev := ModelEvent{Step: mc.expected}
		if p.params != nil {
			ev.Complete, ev.Params = true, p.params
		} else {
			ev.Torn = true
		}
		delete(mc.pending, mc.expected)
		mc.queue = append(mc.queue, ev)
		mc.expected++
		mc.deadline = time.Time{} // progress: next broadcast gets a fresh bound
	}
}

// Pending exposes the number of partially assembled broadcasts the
// collector is tracking (tests assert the hostile-spam bound).
func (mc *ModelCollector) Pending() int { return len(mc.pending) }
