package ps

import (
	"math"
	"testing"

	"aggregathor/internal/attack"
	"aggregathor/internal/gar"
	"aggregathor/internal/opt"
)

func TestAsyncConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     AsyncConfig
		workers int
		ok      bool
	}{
		{"zero value (lockstep)", AsyncConfig{}, 7, true},
		{"quorum only", AsyncConfig{Quorum: 5}, 7, true},
		{"quorum equals n", AsyncConfig{Quorum: 7}, 7, true},
		{"full slow config", AsyncConfig{Quorum: 5, Staleness: 2, SlowRate: 0.3}, 7, true},
		{"staleness without slow", AsyncConfig{Staleness: 3}, 7, true},
		{"negative quorum", AsyncConfig{Quorum: -1}, 7, false},
		{"quorum above n", AsyncConfig{Quorum: 8}, 7, false},
		{"negative staleness", AsyncConfig{Staleness: -1}, 7, false},
		{"negative slow rate", AsyncConfig{SlowRate: -0.1, Staleness: 1}, 7, false},
		{"slow rate one", AsyncConfig{SlowRate: 1.0, Staleness: 1}, 7, false},
		{"slow without staleness", AsyncConfig{SlowRate: 0.3}, 7, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate(tc.workers)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpectedly rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	if (AsyncConfig{}).Enabled() {
		t.Error("zero-value AsyncConfig reports Enabled")
	}
	for _, cfg := range []AsyncConfig{{Quorum: 1}, {Staleness: 1}, {SlowRate: 0.1, Staleness: 1}} {
		if !cfg.Enabled() {
			t.Errorf("%+v should report Enabled", cfg)
		}
	}
	if got := (AsyncConfig{}).EffectiveQuorum(7); got != 7 {
		t.Errorf("zero quorum resolves to %d, want all 7 slots", got)
	}
	if got := (AsyncConfig{Quorum: 5}).EffectiveQuorum(7); got != 5 {
		t.Errorf("explicit quorum resolves to %d, want 5", got)
	}
}

// TestAsyncSchedulePureFunction pins the slow-worker schedule's contract: Lag
// is a pure function of (seed, step, worker), bounded by the staleness
// window, zero at step 0 and clamped to the steps that exist; ExpectedTag is
// -1 exactly when the drawn lag breaches τ and step-lag otherwise.
func TestAsyncSchedulePureFunction(t *testing.T) {
	cfg := AsyncConfig{Quorum: 5, Staleness: 2, SlowRate: 0.4}
	const seed = int64(99)
	slowSeen, droppedSeen := false, false
	for step := 0; step < 200; step++ {
		for worker := 0; worker < 7; worker++ {
			lag := cfg.Lag(seed, step, worker)
			if lag != cfg.Lag(seed, step, worker) {
				t.Fatalf("Lag(%d, %d) is not deterministic", step, worker)
			}
			if step == 0 && lag != 0 {
				t.Fatalf("step 0 drew lag %d; no earlier model exists", lag)
			}
			if lag < 0 || lag > cfg.Staleness+1 || lag > step {
				t.Fatalf("Lag(%d, %d) = %d outside [0, min(τ+1, step)]", step, worker, lag)
			}
			tag := cfg.ExpectedTag(seed, step, worker)
			switch {
			case lag > cfg.Staleness:
				droppedSeen = true
				if tag != -1 {
					t.Fatalf("lag %d > τ=%d at (%d, %d) but tag %d != -1", lag, cfg.Staleness, step, worker, tag)
				}
			default:
				if lag > 0 {
					slowSeen = true
				}
				if tag != step-lag {
					t.Fatalf("tag %d at (%d, %d), want step-lag = %d", tag, step, worker, step-lag)
				}
			}
		}
	}
	if !slowSeen {
		t.Fatal("SlowRate 0.4 over 200 steps never drew an admissible slow worker")
	}
	if !droppedSeen {
		t.Fatal("SlowRate 0.4 over 200 steps never drew a too-stale lag")
	}
	// SlowRate 0 (or a pure-quorum config) is fresh everywhere.
	lockstep := AsyncConfig{Quorum: 7}
	for step := 0; step < 50; step++ {
		for worker := 0; worker < 7; worker++ {
			if tag := lockstep.ExpectedTag(seed, step, worker); tag != step {
				t.Fatalf("quorum-only config drew tag %d at step %d; every worker must be fresh", tag, step)
			}
		}
	}
}

// TestAsyncLockstepBitIdentical is the parity half of the tentpole contract:
// an async configuration demanding every slot fresh (Quorum = n, τ = 0, no
// slow schedule) must walk exactly the plain cluster's trajectory, round by
// round, bit for bit.
func TestAsyncLockstepBitIdentical(t *testing.T) {
	build := func(async AsyncConfig) *Cluster {
		train, _, factory := testFixture(31)
		c, err := New(Config{
			ModelFactory: factory,
			Workers:      honestWorkers(train, 7),
			GAR:          gar.NewMultiKrum(1),
			Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.2}},
			Batch:        16,
			Seed:         77,
			Async:        async,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	plain := build(AsyncConfig{})
	async := build(AsyncConfig{Quorum: 7})
	for step := 0; step < 20; step++ {
		rp, err := plain.Step()
		if err != nil {
			t.Fatal(err)
		}
		ra, err := async.Step()
		if err != nil {
			t.Fatal(err)
		}
		if ra.AdmittedStale != 0 || ra.DroppedStale != 0 {
			t.Fatalf("step %d: lockstep-strict async counted stale slots: %+v", step, ra)
		}
		if rp.Received != ra.Received || rp.Skipped != ra.Skipped || rp.Loss != ra.Loss {
			t.Fatalf("step %d: round results diverged: %+v vs %+v", step, rp, ra)
		}
		p, a := plain.Params(), async.Params()
		for i := range p {
			if math.Float64bits(p[i]) != math.Float64bits(a[i]) {
				t.Fatalf("step %d: param %d diverged between plain and quorum-n async", step, i)
			}
		}
	}
}

// TestAsyncSlowScheduleCountersExact drives a slow-scheduled cluster and
// checks every round's counters against an independent evaluation of the
// schedule — admitted-stale, dropped-too-stale, received and the quorum skip
// are all pure functions of the seed, and the model must move exactly on the
// non-skipped rounds.
func TestAsyncSlowScheduleCountersExact(t *testing.T) {
	async := AsyncConfig{Quorum: 5, Staleness: 2, SlowRate: 0.4}
	const seed, n, steps = int64(7), 7, 60
	train, _, factory := testFixture(32)
	c, err := New(Config{
		ModelFactory: factory,
		Workers:      honestWorkers(train, n),
		GAR:          gar.Median{},
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:        8,
		Seed:         seed,
		Async:        async,
	})
	if err != nil {
		t.Fatal(err)
	}
	staleRounds, droppedRounds, skippedRounds := 0, 0, 0
	for step := 0; step < steps; step++ {
		wantStale, wantDropped := 0, 0
		for id := 0; id < n; id++ {
			tag := async.ExpectedTag(seed, step, id)
			switch {
			case tag < 0:
				wantDropped++
			case tag < step:
				wantStale++
			}
		}
		wantReceived := n - wantDropped
		wantSkipped := wantReceived < async.Quorum
		before := c.Params()
		res, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.AdmittedStale != wantStale || res.DroppedStale != wantDropped {
			t.Fatalf("step %d: counters stale=%d dropped=%d, schedule says %d/%d",
				step, res.AdmittedStale, res.DroppedStale, wantStale, wantDropped)
		}
		if res.Received != wantReceived {
			t.Fatalf("step %d: received %d, schedule says %d", step, res.Received, wantReceived)
		}
		if res.Skipped != wantSkipped {
			t.Fatalf("step %d: skipped=%v with %d received against quorum %d",
				step, res.Skipped, res.Received, async.Quorum)
		}
		after := c.Params()
		moved := false
		for i := range before {
			if before[i] != after[i] {
				moved = true
				break
			}
		}
		if moved == res.Skipped {
			t.Fatalf("step %d: skipped=%v but parameters moved=%v", step, res.Skipped, moved)
		}
		if wantStale > 0 {
			staleRounds++
		}
		if wantDropped > 0 {
			droppedRounds++
		}
		if wantSkipped {
			skippedRounds++
		}
	}
	// The schedule must actually exercise all three behaviours at this rate,
	// otherwise the assertions above ran vacuously.
	if staleRounds == 0 || droppedRounds == 0 || skippedRounds == 0 {
		t.Fatalf("schedule exercised stale=%d dropped=%d skipped=%d rounds; need all > 0 (dead fixture)",
			staleRounds, droppedRounds, skippedRounds)
	}
	if !c.Params().IsFinite() {
		t.Fatal("parameters went non-finite under the slow schedule")
	}
}

// TestAsyncInformedAttackRejected pins the informed-attack × slow-schedule
// incompatibility: an attack that recomputes honest gradients assumes every
// peer trained fresh, which a slow schedule breaks, so construction must fail
// — but the same attack stays available under a pure quorum config (no slow
// schedule, every submission fresh).
func TestAsyncInformedAttackRejected(t *testing.T) {
	train, _, factory := testFixture(33)
	build := func(async AsyncConfig) error {
		workers := honestWorkers(train, 7)
		workers[6].Attack = attack.NegativeSum{}
		_, err := New(Config{
			ModelFactory: factory,
			Workers:      workers,
			GAR:          gar.NewMultiKrum(1),
			Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
			Batch:        8,
			Seed:         5,
			Async:        async,
		})
		return err
	}
	if err := build(AsyncConfig{Quorum: 5, Staleness: 2, SlowRate: 0.3}); err == nil {
		t.Fatal("informed attack accepted alongside a slow-worker schedule")
	}
	if err := build(AsyncConfig{Quorum: 5}); err != nil {
		t.Fatalf("informed attack rejected under a pure quorum config: %v", err)
	}
	if err := build(AsyncConfig{}); err != nil {
		t.Fatalf("informed attack rejected in lockstep: %v", err)
	}
}
