package ps

import (
	"fmt"
	"math/rand"
)

// Worker churn: the deterministic crash/rejoin schedule and the server's
// admission ledger. A seeded per-(step, worker) schedule (ChurnSeed) crashes
// live workers mid-run — the socket backends tear the worker's connections
// down abruptly — and schedules each crash's rejoin a fixed number of rounds
// later, up to a per-worker rejoin budget. Like every schedule it is a pure
// function of the run seed that the Planner evaluates at BOTH endpoints: the
// worker knows when to crash and when its rejoin round arrives; the server
// knows exactly which slots can never be filled, so a round settles the
// moment the live membership's gradients are in — no deadline waits — and
// the crash/rejoin counters in campaign JSON are byte-reproducible.

// ChurnConfig configures the deterministic worker crash/rejoin schedule on
// the socket backends. The zero value disables churn. The JSON names are a
// campaign network cell's churn block.
type ChurnConfig struct {
	// Rate is the per-(step, worker) probability that a live worker
	// crashes at a round, drawn from ChurnSeed. 0 disables churn; draws
	// start at step 1 (a worker must have identified itself on the wire
	// before its first crash).
	Rate float64 `json:"rate"`
	// DownSteps is how many rounds a crashed worker stays down: a crash at
	// step s schedules the rejoin at step s+DownSteps. Must be >= 1 when
	// churn is enabled.
	DownSteps int `json:"downSteps,omitempty"`
	// MaxRejoins caps how many times one worker may rejoin. Once a
	// worker's budget is spent, its next crash is permanent: it never
	// rejoins and its slot is dropped for the rest of the run.
	MaxRejoins int `json:"maxRejoins,omitempty"`
}

// Enabled reports whether the churn schedule is active.
func (c ChurnConfig) Enabled() bool { return c.Rate > 0 }

// Validate checks the churn parameters for internal consistency.
func (c ChurnConfig) Validate() error {
	if c.Rate < 0 || c.Rate >= 1 {
		return fmt.Errorf("ps: churn rate must be in [0, 1), got %v", c.Rate)
	}
	if c.DownSteps < 0 {
		return fmt.Errorf("ps: churn downSteps must be >= 0, got %d", c.DownSteps)
	}
	if c.MaxRejoins < 0 {
		return fmt.Errorf("ps: churn maxRejoins must be >= 0, got %d", c.MaxRejoins)
	}
	if c.Enabled() && c.DownSteps < 1 {
		return fmt.Errorf("ps: churn with rate %v needs downSteps >= 1 (a crash must cost at least one round)", c.Rate)
	}
	if !c.Enabled() && (c.DownSteps != 0 || c.MaxRejoins != 0) {
		return fmt.Errorf("ps: churn downSteps/maxRejoins (%d/%d) without a crash rate; set rate > 0 or zero them", c.DownSteps, c.MaxRejoins)
	}
	return nil
}

// ChurnPhase is one worker's membership phase at one round.
type ChurnPhase int

const (
	// ChurnLive: the worker is up and submits normally this round.
	ChurnLive ChurnPhase = iota
	// ChurnCrash: the schedule crashes the worker this round — it receives
	// the broadcast, tears its sockets down without submitting, and its
	// slot is dropped (never recouped, never awaited).
	ChurnCrash
	// ChurnDown: the worker is down this round; the server neither
	// broadcasts to it nor waits for its slot.
	ChurnDown
	// ChurnRejoin: the worker's scheduled rejoin round — it reconnects
	// through the backoff dialer, re-handshakes, receives the current
	// broadcast model and submits normally.
	ChurnRejoin
)

// Participates reports whether a worker in this phase submits a gradient
// this round (live or rejoining). Crashed and down workers' slots are
// dropped by design: never awaited, never recouped — the churn twin of the
// async schedule's too-stale drop.
func (p ChurnPhase) Participates() bool { return p == ChurnLive || p == ChurnRejoin }

func (p ChurnPhase) String() string {
	switch p {
	case ChurnLive:
		return "live"
	case ChurnCrash:
		return "crash"
	case ChurnDown:
		return "down"
	case ChurnRejoin:
		return "rejoin"
	default:
		return fmt.Sprintf("ChurnPhase(%d)", int(p))
	}
}

// churnCrashDraw evaluates the seeded crash draw for one live worker at one
// step on caller-owned scratch. Keyed per (step, worker) — never a per-worker
// stream — so both endpoints can evaluate it independently.
func churnCrashDraw(rng *rand.Rand, runSeed int64, step, worker int, rate float64) bool {
	rng.Seed(ChurnSeed(runSeed, step, worker))
	return rng.Float64() < rate
}

// replay walks one worker's crash/rejoin timeline from step 0 and returns
// its phase at step plus whether it is permanently down at that point — the
// O(step) reference the tests hold the Planner's incremental timeline to.
// Nothing on a training path calls it: an endpoint reads Planner.At.
func (c ChurnConfig) replay(runSeed int64, step, worker int) (ChurnPhase, bool) {
	if !c.Enabled() {
		return ChurnLive, false
	}
	rng := rand.New(rand.NewSource(runSeed))
	rejoins := 0
	down := false
	permanent := false
	rejoinStep := 0
	for s := 0; s <= step; s++ {
		phase := ChurnLive
		switch {
		case down && !permanent && s == rejoinStep:
			down = false
			phase = ChurnRejoin
		case down:
			phase = ChurnDown
		case s > 0 && churnCrashDraw(rng, runSeed, s, worker, c.Rate):
			phase = ChurnCrash
			down = true
			if rejoins < c.MaxRejoins {
				rejoins++
				rejoinStep = s + c.DownSteps
			} else {
				permanent = true
			}
		}
		if s == step {
			return phase, permanent
		}
	}
	return ChurnLive, false
}

// Phase returns one worker's membership phase at one step by pure replay.
func (c ChurnConfig) Phase(runSeed int64, step, worker int) ChurnPhase {
	phase, _ := c.replay(runSeed, step, worker)
	return phase
}

// Permanent reports, by pure replay, whether the worker is permanently down
// at step (its rejoin budget was already spent when it last crashed).
func (c ChurnConfig) Permanent(runSeed int64, step, worker int) bool {
	_, permanent := c.replay(runSeed, step, worker)
	return permanent
}

// RejoinVerdict is the typed outcome of one rejoin handshake offered to the
// MembershipTracker — the membership twin of Admission.
type RejoinVerdict int

const (
	// RejoinAdmit: the worker is scheduled to rejoin this round and its
	// handshake is the first — it is re-admitted to the membership.
	RejoinAdmit RejoinVerdict = iota
	// RejoinRejectUnknownWorker: the handshake names a worker id outside
	// the cluster.
	RejoinRejectUnknownWorker
	// RejoinRejectWrongStep: the handshake's step tag is not the current
	// round.
	RejoinRejectWrongStep
	// RejoinRejectNotScheduled: the worker is not scheduled to rejoin this
	// round — it is live, mid-downtime (an early rejoin), or permanently
	// down.
	RejoinRejectNotScheduled
	// RejoinRejectDuplicate: the worker was already admitted this round.
	RejoinRejectDuplicate
	// RejoinRejectBadAttempts: the handshake reported a non-positive dial
	// attempt count.
	RejoinRejectBadAttempts
)

func (v RejoinVerdict) String() string {
	switch v {
	case RejoinAdmit:
		return "admit"
	case RejoinRejectUnknownWorker:
		return "reject-unknown-worker"
	case RejoinRejectWrongStep:
		return "reject-wrong-step"
	case RejoinRejectNotScheduled:
		return "reject-not-scheduled"
	case RejoinRejectDuplicate:
		return "reject-duplicate"
	case RejoinRejectBadAttempts:
		return "reject-bad-attempts"
	default:
		return fmt.Sprintf("RejoinVerdict(%d)", int(v))
	}
}

// MembershipTracker is the server's admission ledger for the churn schedule.
// It is pure and I/O-free: the phases are the Planner's (it keeps no second
// copy of the timeline); the tracker records which scheduled rejoins have
// been admitted this round and what their handshakes reported. Only
// admissions mutate it; rejected handshakes leave it untouched.
type MembershipTracker struct {
	plan     *Planner
	admitted []bool
	// This round's crashes, admitted rejoins and the dial attempts their
	// handshakes reported (on the scheduled path every rejoin dials exactly
	// once) — what StepResult reports.
	crashes, rejoins, attempts int
}

// NewMembershipTracker builds the ledger over a planner covering every slot
// from 0.
func NewMembershipTracker(plan *Planner) *MembershipTracker {
	return &MembershipTracker{plan: plan, admitted: make([]bool, len(plan.slots))}
}

// BeginRound advances the plan to round step and opens its ledger.
func (t *MembershipTracker) BeginRound(step int) {
	t.crashes, t.rejoins, t.attempts = 0, 0, 0
	for w := range t.admitted {
		t.admitted[w] = false
		if t.plan.At(step, w).Phase == ChurnCrash {
			t.crashes++
		}
	}
}

// Admit offers one rejoin handshake (worker id, the round it claims to
// rejoin at, and the dial attempts its reconnect took) and returns the typed
// verdict. Only RejoinAdmit mutates the tracker.
func (t *MembershipTracker) Admit(worker, step, attempts int) RejoinVerdict {
	if worker < 0 || worker >= len(t.admitted) {
		return RejoinRejectUnknownWorker
	}
	if step != t.plan.step {
		return RejoinRejectWrongStep
	}
	if t.plan.slots[worker].Phase != ChurnRejoin {
		return RejoinRejectNotScheduled
	}
	if t.admitted[worker] {
		return RejoinRejectDuplicate
	}
	if attempts < 1 {
		return RejoinRejectBadAttempts
	}
	t.admitted[worker] = true
	t.rejoins++
	t.attempts += attempts
	return RejoinAdmit
}

// Live returns the number of workers that participate in the current round
// (phase live or rejoin) — the n_live the GAR safety bound is checked
// against.
func (t *MembershipTracker) Live() int {
	live := 0
	for w := range t.plan.slots {
		if t.plan.slots[w].Phase.Participates() {
			live++
		}
	}
	return live
}

// PendingRejoins returns how many scheduled rejoins this round still await
// their handshake.
func (t *MembershipTracker) PendingRejoins() int {
	pending := 0
	for w := range t.plan.slots {
		if t.plan.slots[w].Phase == ChurnRejoin && !t.admitted[w] {
			pending++
		}
	}
	return pending
}

// Churned reports whether the worker has crashed at least once so far —
// used by the TCP backend to tell a scheduled connection teardown from a
// genuine failure when a reader error surfaces.
func (t *MembershipTracker) Churned(worker int) bool {
	s := &t.plan.slots[worker]
	return s.down || s.rejoins > 0
}
