package ps

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// The round engine. A server round is one algorithm on every backend —
// broadcast, wait boundedly for id-slotted gradients (§3.2), recoup what a
// lossy channel ate (§3.3), refuse to aggregate below the rule's Byzantine
// bound, aggregate, descend — and this file is its only implementation. It
// performs no I/O and reads no clock: Begin plans the round from the seeded
// schedules, the Offer family admits arrivals against the plan, Finish
// recoups, aggregates and descends. The plan itself is the Planner's
// (plan.go), the same evaluator every socket worker runs over its own slot.
// The in-process Cluster and the socket clusters are adapters around it:
// they move bytes, read the plan only to decide I/O (whom to broadcast to,
// which drop mask to hand the sender) and report the two unscheduled
// contingencies — a deadline (Expire) and a dead connection (Disconnected).
// README.md, "Round engine", has the tour.

// Server is the parameter authority every deployment embeds: the evaluation
// replica, whose parameter store is the live parameter vector — the
// optimizer descends it in place, so the replica is never out of sync and no
// second copy exists — and the model-update counter.
type Server struct {
	net    *nn.Network
	params tensor.Vector // net.Params(), the model's own store
	step   int
}

// Model returns the evaluation replica: the current parameters.
func (s *Server) Model() *nn.Network { return s.net }

// Params returns a copy of the current model parameters.
func (s *Server) Params() tensor.Vector { return s.params.Clone() }

// StepCount returns the number of rounds run so far.
func (s *Server) StepCount() int { return s.step }

// SetParams overwrites the model parameters (checkpoint restore / warm
// start) — a local trusted-operator action, permitted in any security mode.
func (s *Server) SetParams(v tensor.Vector) error {
	if v.Dim() != s.params.Dim() {
		return fmt.Errorf("ps: SetParams dimension %d, want %d", v.Dim(), s.params.Dim())
	}
	copy(s.params, v)
	return nil
}

// Link describes a chunked datagram link with scheduled artificial loss.
// The zero value is a message link: submissions arrive whole or not at all,
// so a slot never has lost coordinates.
type Link struct {
	// Codec and MTU fix how a transfer splits into packets — the indexing
	// of the drop masks.
	Codec transport.Codec
	MTU   int
	// GradLoss is the per-packet drop probability of worker→server gradient
	// datagrams (UplinkDrops).
	GradLoss float64
	// ModelLoss is the per-packet drop probability of server→worker model
	// broadcasts (DownlinkDrops).
	ModelLoss float64
	// StaleModels says a worker answers a torn broadcast with a gradient on
	// its last complete model, tagged with that model's step, instead of
	// sitting the round out.
	StaleModels bool
	// Slots is how many slots ride the link — ids 0..Slots-1; the rest have a
	// message link (Figure 8 puts 8 of 19 workers on lossyMPI). 0 = all.
	Slots int
}

// carries reports whether slot id's transfers travel this link, and datagram
// whether they do so as datagrams (a link with no MTU moves whole messages).
func (l Link) carries(id int) bool  { return l.Slots == 0 || id < l.Slots }
func (l Link) datagram(id int) bool { return l.MTU > 0 && l.carries(id) }

// ModelLossEnabled is the one predicate for "the model-loss axis is on": a
// positive downlink drop rate, or stale recoup requested (which only means
// anything on a lossy downlink).
func (l Link) ModelLossEnabled() bool { return l.ModelLoss > 0 || l.StaleModels }

// EngineConfig is what the round engine plans, settles and finishes rounds
// from: the round description plus the training objects.
type EngineConfig struct {
	RoundConfig
	// Model is the server's evaluation replica; its parameter store is the
	// deployment's parameter authority.
	Model     *nn.Network
	GAR       gar.GAR
	Optimizer opt.Optimizer
	L1, L2    float64
	// Byzantine marks the slots excluded from the diagnostic loss mean
	// (nil = none).
	Byzantine []bool
}

// slotState is where one worker's slot stands in the current round.
type slotState uint8

const (
	// slotOpen: nothing has settled the slot yet.
	slotOpen slotState = iota
	// slotGot: the slot holds the worker's own submission — whole, or
	// fill-completed from the packets that arrived.
	slotGot
	// slotRecouped: the slot holds a stand-in gradient; no worker data
	// arrived for it.
	slotRecouped
	// slotEmpty: settled without a gradient — scheduled out (too stale,
	// crashed, down) or dropped by the DropGradient policy.
	slotEmpty
)

// slot is one worker's seat at the server: its liveness across rounds, and
// where its submission for the current round stands.
type slot struct {
	// suspected: the worker missed a round deadline and is no longer waited
	// for (an admitted submission or rejoin clears it). dead: its connection
	// is gone.
	suspected, dead bool
	standIn         tensor.Vector // whole-slot recoup buffer, allocated on first use

	// The current round: plan is the slot's share of the step's plan — the
	// tag its submission will carry (-1 when the worker cannot submit), the
	// link masks, the coordinates scheduled to drop on the uplink. A worker
	// that genuinely lost a broadcast the schedule calls complete falls out
	// of the deterministic contract: it has no model for the tag the plan
	// expects, submits nothing, and its slots are recouped at the deadline
	// until the next delivered broadcast resynchronises it.
	plan  *SlotPlan
	state slotState
	grad  tensor.Vector
	loss  float64
}

// Engine is the cluster-lifetime half of the round engine: configuration,
// parameter authority, aggregation workspace, membership, the worker slots
// and all scratch. Begin returns the step's Round.
type Engine struct {
	Server
	cfg        EngineConfig
	ws         *gar.Workspace
	plan       *Planner
	membership *MembershipTracker // nil without a churn schedule
	slots      []slot
	// asm holds partially arrived chunked submissions (OfferPacket); a
	// message backend never feeds it.
	asm      *transport.Reassembler
	fillRng  *rand.Rand
	randFill func(int) float64
	received []tensor.Vector
	round    Round
}

// Round is one step's plan and settlement state. It is owned by the engine
// and valid until the next Begin.
type Round struct {
	e *Engine
}

// NewEngine validates the round description and builds the engine: no
// backend can plan a round from an unvalidated configuration.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if err := cfg.RoundConfig.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		Server:   Server{net: cfg.Model, params: cfg.Model.Params()},
		cfg:      cfg,
		ws:       gar.NewWorkspace(),
		slots:    make([]slot, cfg.Workers),
		asm:      transport.NewReassembler(transport.DropGradient, nil),
		fillRng:  rand.New(rand.NewSource(cfg.Seed)),
		received: make([]tensor.Vector, 0, cfg.Workers),
	}
	e.round.e = e
	// The deployment's exact dimension is known: pin it, so a spoofed
	// header can neither allocate beyond it nor evict a pending partial.
	e.asm.SetExpectDim(e.params.Dim())
	e.randFill = func(int) float64 { return e.fillRng.NormFloat64() }
	e.plan = NewPlanner(&e.cfg.RoundConfig, e.params.Dim(), 0, cfg.Workers)
	if cfg.Churn.Enabled() {
		e.membership = NewMembershipTracker(e.plan)
	}
	return e, nil
}

// Evictions reports how many partial submissions were rebuilt because a
// later packet contradicted the first one's metadata — nonzero means
// somebody is spoofing datagrams.
func (e *Engine) Evictions() int { return e.asm.Evictions() }

// Begin plans the next round: it advances the plan — the churn timeline,
// every slot's expected step tag and link drop masks — and settles up front
// the slots the plan leaves nothing to wait for. Both endpoints evaluate the
// same Planner, so the plan is the single source of truth for which slots a
// round waits on.
func (e *Engine) Begin() *Round {
	r, step := &e.round, e.step
	// Partials from earlier rounds can never complete (their remaining
	// packets were scheduled drops); release them so a silent worker cannot
	// grow server memory.
	e.asm.DropStale(step)
	if e.membership != nil {
		e.membership.BeginRound(step)
	}
	for id := range e.slots {
		s := &e.slots[id]
		s.plan, s.state = e.plan.At(step, id), slotOpen
		switch p := s.plan; {
		case !p.Phase.Participates() || p.Tag < 0 && e.cfg.Async.Enabled():
			// Crashed or down, or sat out by the slow schedule: the slot is
			// dropped by design — never awaited, never recouped — and the
			// server proceeds as if the worker did not exist.
			s.state = slotEmpty
		case p.Tag < 0 || p.Lost == e.params.Dim():
			// A torn broadcast the worker cannot answer, or an answer whose
			// every packet is scheduled away: nothing of this slot can
			// arrive, so it is recouped now. (Stale tags repeat across
			// consecutive torn rounds, so a packet delayed across a round
			// deadline can seed the next same-tagged partial; that slot then
			// settles through the recoup fill like any corrupted gradient.)
			r.recoup(id)
		}
	}
	return r
}

// Step returns the round's model-update index.
func (r *Round) Step() int { return r.e.step }

// Params returns the live parameter vector to broadcast. It is the server
// model's own store, not a copy of it: adapters must not modify it.
func (r *Round) Params() tensor.Vector { return r.e.params }

// Tag returns the step tag worker id's submission will carry this round —
// the model it trains on — or -1 when it submits nothing.
func (r *Round) Tag(id int) int { return r.e.slots[id].plan.Tag }

// Downlink says how this round's broadcast goes to worker id: the scheduled
// drop mask to apply before the socket write (nil = nothing dropped), and
// whether to send at all — to every worker but one the churn schedule holds
// down (a crashing worker still gets its last).
func (r *Round) Downlink(id int) (mask []bool, send bool) {
	p := r.e.slots[id].plan
	return p.Downlink, p.Phase != ChurnDown
}

// admit classifies an arrival for (id, tag) against the plan without
// changing anything.
func (r *Round) admit(id, tag int) Admission {
	if id < 0 || id >= len(r.e.slots) {
		return RejectUnknownWorker
	}
	step, s := r.e.step, &r.e.slots[id]
	switch {
	case s.plan.Tag < 0 || tag != s.plan.Tag:
		if tag < step-r.e.cfg.Async.Staleness {
			return RejectTooStale
		}
		return RejectWrongTag
	case s.state != slotOpen:
		return RejectDuplicate
	case tag == step:
		return AdmitFresh
	default:
		return AdmitStale
	}
}

// Offer submits worker id's whole gradient, tagged with the step of the
// model it was computed on. Only an admission changes the round; every
// rejection leaves it untouched, so an adapter is free to fail loudly (a
// connection-oriented backend, where a duplicate or future-tagged frame
// means a lying peer) or to ignore it (unauthenticated datagrams). A
// gradient that is not the model's dimension is RejectMalformed: the rule
// aggregates only what the engine admitted, and one mis-sized vector would
// fail the whole round there. The gradient is kept by reference until
// Finish.
func (r *Round) Offer(id, tag int, grad tensor.Vector, loss float64) Admission {
	v := r.admit(id, tag)
	if !v.Admitted() {
		return v
	}
	if grad.Dim() != r.e.params.Dim() {
		return RejectMalformed
	}
	r.settle(id, grad, loss)
	return v
}

// OfferPacket submits one datagram of a chunked gradient, admitted on the
// same terms as Offer. The slot settles when its gradient completes or —
// under scheduled loss — the moment all its surviving packets are in and the
// known-lost coordinates are recouped: no timer involved.
func (r *Round) OfferPacket(pkt *transport.Packet) Admission {
	id, asm := pkt.Worker, r.e.asm
	v := r.admit(id, pkt.Step)
	if !v.Admitted() {
		return v
	}
	if pkt.Dim != r.e.params.Dim() {
		return RejectMalformed
	}
	if msg, done := asm.Offer(pkt); done {
		r.settle(id, msg.Grad, msg.Loss)
	} else if missing, ok := asm.Missing(id, pkt.Step); ok && missing == r.e.slots[id].plan.Lost {
		r.recoup(id)
	}
	return v
}

// settle fills slot id with the worker's own submission.
func (r *Round) settle(id int, grad tensor.Vector, loss float64) {
	s := &r.e.slots[id]
	s.state, s.grad, s.loss = slotGot, grad, loss
	s.suspected = false // a recovered straggler is waited for again
}

// recoup settles slot id by the recoup policy — the one place a missing
// gradient, or the missing part of one, is made up. DropGradient empties
// the slot; FillNaN and FillRandom complete the slot's partial submission,
// or stand in for the whole gradient when nothing arrived. Fill values are
// keyed on RecoupSeed(seed, round, id) and applied in ascending coordinate
// order, so they are a pure function of the configuration and the set of
// missing coordinates, independent of which rounds before timed out.
func (r *Round) recoup(id int) {
	e, s := r.e, &r.e.slots[id]
	var fill func(int) float64
	switch e.cfg.Recoup {
	case transport.FillNaN:
		fill = nanFill
	case transport.FillRandom:
		e.fillRng.Seed(RecoupSeed(e.cfg.Seed, e.step, id))
		fill = e.randFill
	default:
		e.asm.Discard(id, s.plan.Tag)
		s.state = slotEmpty
		return
	}
	if msg, ok := e.asm.FlushFill(id, s.plan.Tag, fill); ok {
		r.settle(id, msg.Grad, msg.Loss)
		return
	}
	if s.standIn == nil {
		s.standIn = tensor.NewVector(e.params.Dim())
	}
	for i := range s.standIn {
		s.standIn[i] = fill(i)
	}
	s.state, s.grad = slotRecouped, s.standIn
}

func nanFill(int) float64 { return math.NaN() }

// Outstanding returns how many slots the round is still waiting for: open,
// and belonging to a worker neither dead nor suspected.
func (r *Round) Outstanding() int {
	m := 0
	for id := range r.e.slots {
		if s := &r.e.slots[id]; s.state == slotOpen && !s.dead && !s.suspected {
			m++
		}
	}
	return m
}

// PendingRejoins returns how many rejoins the churn schedule places in this
// round still await admission.
func (r *Round) PendingRejoins() int {
	if r.e.membership == nil {
		return 0
	}
	return r.e.membership.PendingRejoins()
}

// Rejoin offers one reconnect handshake — the worker, the round it claims
// to rejoin at, the dial attempts it took — to the membership schedule. On
// admission the worker is live again: no longer dead or suspected.
func (r *Round) Rejoin(worker, step, attempts int) RejoinVerdict {
	v := r.e.membership.Admit(worker, step, attempts)
	if v == RejoinAdmit {
		r.e.slots[worker].dead, r.e.slots[worker].suspected = false, false
	}
	return v
}

// AdmitRejoins admits every rejoin the schedule places in this round
// without a handshake, for transports with no connection to re-establish: a
// datagram worker simply starts sending again (one dial attempt — on the
// scheduled path the backoff dialer's first attempt succeeds).
func (r *Round) AdmitRejoins() {
	for id := range r.e.slots {
		if r.e.slots[id].plan.Phase == ChurnRejoin {
			r.Rejoin(id, r.e.step, 1)
		}
	}
}

// Disconnected reports that worker id's connection is gone. A worker the
// churn schedule has crashed tore it down on cue (or its pre-crash
// connection is winding down) and rejoins on a fresh one; anyone else is
// dead — no longer waited for, its slots recouped.
func (r *Round) Disconnected(id int) {
	if r.e.membership == nil || !r.e.membership.Churned(id) {
		r.e.slots[id].dead = true
	}
}

// Expire is the round deadline: the round proceeds with whatever arrived
// (the paper's bounded waiting). Workers still outstanding are suspected
// and not waited for in later rounds, so one unresponsive node costs one
// timeout, not one per round.
func (r *Round) Expire() {
	for id := range r.e.slots {
		if s := &r.e.slots[id]; s.state == slotOpen && !s.dead {
			s.suspected = true
		}
	}
}

// Finish closes the round: it recoups every slot still open, aggregates the
// filled slots in worker-id order — arrival order is a race, and
// floating-point summation is order-sensitive — and applies the descent
// step. A skipped round leaves the model unchanged and still advances the
// step.
func (r *Round) Finish() (*StepResult, error) {
	e, cfg := r.e, &r.e.cfg
	res := &StepResult{Step: e.step}
	if e.membership != nil {
		res.Crashes, res.Rejoins, res.ReconnectAttempts = e.membership.crashes, e.membership.rejoins, e.membership.attempts
	}
	received := e.received[:0]
	lossSum, lossN := 0.0, 0
	for id := range e.slots {
		s := &e.slots[id]
		if s.state == slotOpen {
			r.recoup(id)
		}
		switch s.state {
		case slotGot:
			// Only a slot carrying the worker's own stale-tagged
			// submission counts as stale — a stand-in contains no worker
			// gradient at all. The two staleness regimes are mutually
			// exclusive: the slow schedule's admissions, or torn
			// broadcasts answered on a stale model.
			if s.plan.Tag != e.step && cfg.Async.Enabled() {
				res.AdmittedStale++
			} else if s.plan.Tag != e.step {
				res.Stale++
			}
			received = append(received, s.grad)
			// Mean honest loss (diagnostic only): Byzantine losses are excluded,
			// and a loss travels with its gradient — no submission, no loss.
			if cfg.Byzantine == nil || !cfg.Byzantine[id] {
				lossSum += s.loss
				lossN++
			}
		case slotRecouped:
			received = append(received, s.grad)
		case slotEmpty:
			if cfg.Async.Enabled() && s.plan.Tag < 0 {
				res.DroppedStale++ // the slow schedule sat the worker out
			}
		}
	}
	res.Received = len(received)
	if lossN > 0 {
		res.Loss = lossSum / float64(lossN)
	}
	agg, err := r.aggregate(res, received)
	if err != nil {
		return nil, err
	}
	if !res.Skipped {
		opt.Regularize(agg, e.params, cfg.L1, cfg.L2)
		cfg.Optimizer.Step(e.step, e.params, agg)
	}
	// Release the round's gradients now rather than at the next Begin: by
	// then the transports are already decoding the next round's.
	clear(received)
	for id := range e.slots {
		e.slots[id].grad = nil
	}
	e.step++
	return res, nil
}

// aggregate runs the GAR over the round's gradients unless a gate skips the
// round (marked on res): skipped rounds are never waited on or retried. The
// workspace-backed kernels reuse the engine's scratch arena; the result
// aliases it and is consumed before the next round touches it.
func (r *Round) aggregate(res *StepResult, received []tensor.Vector) (tensor.Vector, error) {
	e, cfg := r.e, &r.e.cfg
	// Quorum gate: stragglers never gate an asynchronous round.
	if cfg.Async.Enabled() && len(received) < cfg.Async.EffectiveQuorum(cfg.Workers) {
		res.Skipped = true
		return nil, nil
	}
	// Below-bound gate: when churn shrinks live membership under the GAR's
	// Byzantine safety bound (e.g. 2f+3 for the Krum family) the rule's
	// resilience proof no longer holds for the configured f, so the round
	// is skipped explicitly, without calling the GAR, and counted.
	if info, ok := cfg.GAR.(gar.ByzantineInfo); ok && e.membership != nil && e.membership.Live() < info.MinWorkers() {
		res.BelowBound, res.Skipped = true, true
		return nil, nil
	}
	agg, err := gar.AggregateInto(e.ws, cfg.GAR, received)
	if errors.Is(err, gar.ErrTooFewWorkers) || errors.Is(err, gar.ErrNoGradients) {
		// Too few survivors for the rule: skipped, not deadlocked.
		res.Skipped = true
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ps: aggregation failed at step %d: %w", e.step, err)
	}
	return agg, nil
}
