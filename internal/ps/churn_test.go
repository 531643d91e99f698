package ps

import (
	"testing"
)

func TestChurnConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  ChurnConfig
		ok   bool
	}{
		{"zero value", ChurnConfig{}, true},
		{"enabled", ChurnConfig{Rate: 0.1, DownSteps: 2, MaxRejoins: 3}, true},
		{"enabled no rejoins", ChurnConfig{Rate: 0.1, DownSteps: 1}, true},
		{"negative rate", ChurnConfig{Rate: -0.1, DownSteps: 1}, false},
		{"rate one", ChurnConfig{Rate: 1, DownSteps: 1}, false},
		{"enabled zero downSteps", ChurnConfig{Rate: 0.1}, false},
		{"negative downSteps", ChurnConfig{Rate: 0.1, DownSteps: -1}, false},
		{"negative maxRejoins", ChurnConfig{Rate: 0.1, DownSteps: 1, MaxRejoins: -1}, false},
		{"knobs without rate", ChurnConfig{DownSteps: 2}, false},
		{"rejoins without rate", ChurnConfig{MaxRejoins: 1}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
}

// TestChurnSchedulePureFunction pins the schedule's structural invariants
// over a long horizon: determinism, no crashes at step 0, downtime of
// exactly DownSteps rounds, rejoin budgets enforced, and — the dead-fixture
// guard — that the chosen rate actually exercises crashes, rejoins and a
// permanent departure.
func TestChurnSchedulePureFunction(t *testing.T) {
	cfg := ChurnConfig{Rate: 0.15, DownSteps: 3, MaxRejoins: 2}
	const seed, workers, steps = 29, 7, 300

	crashes, rejoins, permanents := 0, 0, 0
	for w := 0; w < workers; w++ {
		if got := cfg.Phase(seed, 0, w); got != ChurnLive {
			t.Fatalf("worker %d: phase at step 0 = %v, want live", w, got)
		}
		lastCrash := -1
		rejoinsSeen := 0
		for s := 0; s <= steps; s++ {
			phase := cfg.Phase(seed, s, w)
			if phase != cfg.Phase(seed, s, w) {
				t.Fatalf("worker %d step %d: phase not deterministic", w, s)
			}
			switch phase {
			case ChurnCrash:
				crashes++
				if lastCrash >= 0 && s < lastCrash+cfg.DownSteps {
					t.Fatalf("worker %d: crash at %d inside downtime of crash at %d", w, s, lastCrash)
				}
				lastCrash = s
			case ChurnRejoin:
				rejoins++
				rejoinsSeen++
				if lastCrash < 0 || s != lastCrash+cfg.DownSteps {
					t.Fatalf("worker %d: rejoin at %d, want exactly %d after crash at %d",
						w, s, cfg.DownSteps, lastCrash)
				}
				if rejoinsSeen > cfg.MaxRejoins {
					t.Fatalf("worker %d: %d rejoins exceed budget %d", w, rejoinsSeen, cfg.MaxRejoins)
				}
			case ChurnDown:
				if lastCrash < 0 {
					t.Fatalf("worker %d: down at %d without a crash", w, s)
				}
			}
		}
		if cfg.Permanent(seed, steps, w) {
			permanents++
			if rejoinsSeen != cfg.MaxRejoins {
				t.Fatalf("worker %d: permanent after %d rejoins, want budget %d spent",
					w, rejoinsSeen, cfg.MaxRejoins)
			}
		}
	}
	if crashes == 0 || rejoins == 0 {
		t.Fatalf("dead fixture: crashes=%d rejoins=%d — rate never exercised", crashes, rejoins)
	}
	if permanents == 0 {
		t.Fatalf("dead fixture: no worker exhausted its rejoin budget over %d steps", steps)
	}
	if disabled := (ChurnConfig{}); disabled.Phase(seed, 5, 0) != ChurnLive {
		t.Fatal("disabled churn must report every worker live")
	}
}

// TestMembershipTrackerAdmission scripts every rejoin verdict against a
// schedule walked to its first rejoin round.
func TestMembershipTrackerAdmission(t *testing.T) {
	cfg := ChurnConfig{Rate: 0.25, DownSteps: 2, MaxRejoins: 2}
	const seed, workers = 17, 6

	plan := NewPlanner(&RoundConfig{Workers: workers, Seed: seed, Churn: cfg}, 0, 0, workers)
	tr := NewMembershipTracker(plan)
	rejoinStep, rejoinWorker := -1, -1
	for s := 0; s <= 200 && rejoinStep < 0; s++ {
		tr.BeginRound(s)
		for w := 0; w < workers; w++ {
			if plan.At(s, w).Phase == ChurnRejoin {
				rejoinStep, rejoinWorker = s, w
				break
			}
		}
	}
	if rejoinStep < 0 {
		t.Fatal("dead fixture: no rejoin within 200 steps")
	}

	if v := tr.Admit(-1, rejoinStep, 1); v != RejoinRejectUnknownWorker {
		t.Fatalf("negative id: %v", v)
	}
	if v := tr.Admit(workers, rejoinStep, 1); v != RejoinRejectUnknownWorker {
		t.Fatalf("out-of-range id: %v", v)
	}
	if v := tr.Admit(rejoinWorker, rejoinStep-1, 1); v != RejoinRejectWrongStep {
		t.Fatalf("stale step: %v", v)
	}
	if v := tr.Admit(rejoinWorker, rejoinStep, 0); v != RejoinRejectBadAttempts {
		t.Fatalf("zero attempts: %v", v)
	}
	liveWorker := -1
	for w := 0; w < workers; w++ {
		if w != rejoinWorker && cfg.Phase(seed, rejoinStep, w) == ChurnLive {
			liveWorker = w
			break
		}
	}
	if liveWorker >= 0 {
		if v := tr.Admit(liveWorker, rejoinStep, 1); v != RejoinRejectNotScheduled {
			t.Fatalf("live worker rejoin: %v", v)
		}
	}
	if tr.rejoins != 0 || tr.attempts != 0 || tr.PendingRejoins() == 0 {
		t.Fatalf("rejections mutated the ledger: rejoins=%d attempts=%d pending=%d", tr.rejoins, tr.attempts, tr.PendingRejoins())
	}
	if v := tr.Admit(rejoinWorker, rejoinStep, 1); v != RejoinAdmit {
		t.Fatalf("scheduled rejoin: %v", v)
	}
	if v := tr.Admit(rejoinWorker, rejoinStep, 1); v != RejoinRejectDuplicate {
		t.Fatalf("double admit: %v", v)
	}
	if tr.rejoins != 1 || tr.attempts != 1 {
		t.Fatalf("counters after one admit: rejoins=%d attempts=%d", tr.rejoins, tr.attempts)
	}
}

// TestRoundRejoinWithoutChurnIsNotScheduled: an engine without a churn
// schedule has no membership ledger, and a rejoin offered to it — a stray
// hello on a socket backend — is one no schedule placed, not a nil
// dereference.
func TestRoundRejoinWithoutChurnIsNotScheduled(t *testing.T) {
	r := roundTestEngine(RoundConfig{Workers: 3}, nil).Begin()
	if v := r.Rejoin(1, 0, 1); v != RejoinRejectNotScheduled {
		t.Fatalf("Rejoin without a churn schedule = %v, want %v", v, RejoinRejectNotScheduled)
	}
	if r.PendingRejoins() != 0 || r.Outstanding() != 3 {
		t.Fatalf("the refused rejoin moved the round: %d pending rejoins, %d outstanding", r.PendingRejoins(), r.Outstanding())
	}
}
