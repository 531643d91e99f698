package ps

import (
	"errors"
	"fmt"
	"math/rand"
)

// Worker churn: the deterministic crash/rejoin schedule and its membership
// tracker. A seeded per-(step, worker) schedule (ChurnSeed) crashes live
// workers mid-run — the socket backends tear the worker's connections down
// abruptly — and schedules each crash's rejoin a fixed number of rounds
// later, up to a per-worker rejoin budget. Like the drop and slow-worker
// schedules, the churn schedule is a pure function of the run seed evaluated
// at BOTH endpoints: the worker knows when to crash and when its rejoin
// round arrives; the server knows exactly which slots can never be filled,
// so a round settles the moment the live membership's gradients are in —
// no deadline waits — and the crash/rejoin counters in campaign JSON are
// byte-reproducible.

// Named incompatibilities, wrapped with layer context by cluster, core and
// scenario validation (the churn twins of the async × model-loss guard).
var (
	// ErrChurnAsync rejects combining the churn schedule with asynchronous
	// quorum rounds: each regime defines its own reason a slot stays empty
	// (scheduled staleness vs scheduled downtime), and deadline-free
	// settlement requires that a missing gradient mean exactly one thing.
	ErrChurnAsync = errors.New("worker churn is incompatible with asynchronous quorum rounds: a missing slot must mean exactly one thing")
	// ErrChurnModelLoss rejects combining the churn schedule with lossy
	// model broadcasts: a worker that misses a broadcast must be able to
	// conclude it was down, not that the broadcast tore — otherwise the two
	// schedules disagree about which round the worker rejoins on.
	ErrChurnModelLoss = errors.New("worker churn is incompatible with lossy model broadcasts: a skipped broadcast must mean a down worker, not a torn one")
)

// ChurnConfig configures the deterministic worker crash/rejoin schedule on
// the socket backends. The zero value disables churn.
type ChurnConfig struct {
	// Rate is the per-(step, worker) probability that a live worker
	// crashes at a round, drawn from ChurnSeed. 0 disables churn; draws
	// start at step 1 (a worker must have identified itself on the wire
	// before its first crash).
	Rate float64
	// DownSteps is how many rounds a crashed worker stays down: a crash at
	// step s schedules the rejoin at step s+DownSteps. Must be >= 1 when
	// churn is enabled.
	DownSteps int
	// MaxRejoins caps how many times one worker may rejoin. Once a
	// worker's budget is spent, its next crash is permanent: it never
	// rejoins and its slot is dropped for the rest of the run.
	MaxRejoins int
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
// step. Keyed per (step, worker) — never a per-worker stream — so both
// endpoints can evaluate it independently.
func churnCrashDraw(runSeed int64, step, worker int, rate float64) bool {
	rng := rand.New(rand.NewSource(ChurnSeed(runSeed, step, worker)))
	return rng.Float64() < rate
}

// replay walks one worker's crash/rejoin timeline from step 0 and returns
// its phase at step plus whether it is permanently down at that point. A
// worker's timeline depends only on its own draws, so replay is exact at
// both endpoints: crash draws happen only while live (and never at step 0 or
// on the rejoin round itself), a crash with rejoin budget left schedules the
// rejoin DownSteps rounds later, and a crash past the budget is final.
func (c ChurnConfig) replay(runSeed int64, step, worker int) (ChurnPhase, bool) {
	if !c.Enabled() {
		return ChurnLive, false
	}
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
		case s > 0 && churnCrashDraw(runSeed, s, worker, c.Rate):
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

// Phase returns one worker's membership phase at one step — the pure
// schedule function both endpoints evaluate. The MembershipTracker's
// incremental state machine must agree with this replay at every
// (step, worker); the fuzz target cross-checks the two implementations.
func (c ChurnConfig) Phase(runSeed int64, step, worker int) ChurnPhase {
	phase, _ := c.replay(runSeed, step, worker)
	return phase
}

// Permanent reports whether the worker is permanently down at step (its
// rejoin budget was already spent when it last crashed). A crashing worker
// uses this to decide between exiting for good and starting the reconnect
// dialer.
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

// MembershipTracker is the server-side state machine for the churn schedule,
// driven by the round engine. It is pure and I/O-free: the engine calls
// BeginRound once per round to advance the schedule and learn each worker's
// phase, offers rejoin handshakes to Admit for a typed verdict, and reads
// the per-round and run-total counters that flow into StepResult and
// campaign JSON. Only admissions mutate admission state;
// rejected handshakes leave the tracker untouched.
type MembershipTracker struct {
	cfg  ChurnConfig
	seed int64
	n    int

	step        int
	begun       bool
	down        []bool
	permanent   []bool
	rejoinStep  []int
	rejoinsUsed []int
	phases      []ChurnPhase
	admitted    []bool

	crashes           int
	rejoins           int
	reconnectAttempts int
	roundCrashes      int
	roundRejoins      int
	roundAttempts     int
}

// NewMembershipTracker builds the tracker for a run of n workers under cfg.
// The caller must have validated cfg.
func NewMembershipTracker(cfg ChurnConfig, runSeed int64, n int) *MembershipTracker {
	return &MembershipTracker{
		cfg:         cfg,
		seed:        runSeed,
		n:           n,
		down:        make([]bool, n),
		permanent:   make([]bool, n),
		rejoinStep:  make([]int, n),
		rejoinsUsed: make([]int, n),
		phases:      make([]ChurnPhase, n),
		admitted:    make([]bool, n),
	}
}

// BeginRound advances the schedule to round step and returns each worker's
// phase. Rounds must advance one at a time from step 0; the returned slice
// is valid until the next BeginRound. The incremental state must agree with
// ChurnConfig.Phase at every (step, worker) — asserted by the unit tests and
// the fuzz target.
func (t *MembershipTracker) BeginRound(step int) []ChurnPhase {
	want := 0
	if t.begun {
		want = t.step + 1
	}
	if step != want {
		panic(fmt.Sprintf("ps: MembershipTracker.BeginRound(%d) out of order, want round %d", step, want))
	}
	t.step = step
	t.begun = true
	t.roundCrashes, t.roundRejoins, t.roundAttempts = 0, 0, 0
	for w := 0; w < t.n; w++ {
		t.admitted[w] = false
		switch {
		case t.down[w] && !t.permanent[w] && step == t.rejoinStep[w]:
			t.down[w] = false
			t.phases[w] = ChurnRejoin
		case t.down[w]:
			t.phases[w] = ChurnDown
		case step > 0 && churnCrashDraw(t.seed, step, w, t.cfg.Rate):
			t.phases[w] = ChurnCrash
			t.down[w] = true
			t.crashes++
			t.roundCrashes++
			if t.rejoinsUsed[w] < t.cfg.MaxRejoins {
				t.rejoinsUsed[w]++
				t.rejoinStep[w] = step + t.cfg.DownSteps
			} else {
				t.permanent[w] = true
			}
		default:
			t.phases[w] = ChurnLive
		}
	}
	return t.phases
}

// Admit offers one rejoin handshake (worker id, the round it claims to
// rejoin at, and the dial attempts its reconnect took) and returns the typed
// verdict. Only RejoinAdmit mutates the tracker.
func (t *MembershipTracker) Admit(worker, step, attempts int) RejoinVerdict {
	if worker < 0 || worker >= t.n {
		return RejoinRejectUnknownWorker
	}
	if !t.begun || step != t.step {
		return RejoinRejectWrongStep
	}
	if t.phases[worker] != ChurnRejoin {
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
	t.roundRejoins++
	t.reconnectAttempts += attempts
	t.roundAttempts += attempts
	return RejoinAdmit
}

// Live returns the number of workers that participate in the current round
// (phase live or rejoin) — the n_live the GAR safety bound is checked
// against.
func (t *MembershipTracker) Live() int {
	live := 0
	for _, p := range t.phases {
		if p.Participates() {
			live++
		}
	}
	return live
}

// PendingRejoins returns how many scheduled rejoins this round still await
// their handshake.
func (t *MembershipTracker) PendingRejoins() int {
	pending := 0
	for w := 0; w < t.n; w++ {
		if t.phases[w] == ChurnRejoin && !t.admitted[w] {
			pending++
		}
	}
	return pending
}

// Churned reports whether the worker has crashed at least once so far —
// used by the TCP backend to tell a scheduled connection teardown from a
// genuine failure when a reader error surfaces.
func (t *MembershipTracker) Churned(worker int) bool {
	return t.down[worker] || t.permanent[worker] || t.rejoinsUsed[worker] > 0
}

// Crashes returns the run-total crash count.
func (t *MembershipTracker) Crashes() int { return t.crashes }

// Rejoins returns the run-total admitted-rejoin count.
func (t *MembershipTracker) Rejoins() int { return t.rejoins }

// ReconnectAttempts returns the run-total reconnect dial attempts reported
// by admitted handshakes. On the scheduled path every rejoin dials exactly
// once, so this equals Rejoins — asserted by the counter tests.
func (t *MembershipTracker) ReconnectAttempts() int { return t.reconnectAttempts }

// RoundCrashes returns the crash count of the current round.
func (t *MembershipTracker) RoundCrashes() int { return t.roundCrashes }

// RoundRejoins returns the admitted-rejoin count of the current round.
func (t *MembershipTracker) RoundRejoins() int { return t.roundRejoins }

// RoundReconnectAttempts returns the reconnect attempts admitted this round.
func (t *MembershipTracker) RoundReconnectAttempts() int { return t.roundAttempts }
