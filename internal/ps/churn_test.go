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
// TestChurnPhaseString names every phase, and an out-of-range value by its
// number.
func TestChurnPhaseString(t *testing.T) {
	for _, c := range []struct {
		phase ChurnPhase
		want  string
	}{
		{ChurnLive, "live"},
		{ChurnCrash, "crash"},
		{ChurnDown, "down"},
		{ChurnRejoin, "rejoin"},
		{ChurnRejoin + 1, "ChurnPhase(4)"},
		{-1, "ChurnPhase(-1)"},
	} {
		if got := c.phase.String(); got != c.want {
			t.Errorf("ChurnPhase(%d).String() = %q, want %q", int(c.phase), got, c.want)
		}
	}
}

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

// TestRoundRejoinAdmission scripts every verdict a rejoin hello can get
// against an engine walked to its first scheduled rejoin: no rejection moves
// the round, and the one admission counts once, with its dial attempts.
func TestRoundRejoinAdmission(t *testing.T) {
	const workers = 6
	e := roundTestEngine(RoundConfig{Workers: workers, Seed: 17, Churn: ChurnConfig{Rate: 0.25, DownSteps: 2, MaxRejoins: 2}}, nil)
	var round *Round
	rejoinWorker, liveWorker := -1, -1
	for rejoinWorker < 0 {
		if e.step > 200 {
			t.Fatal("dead fixture: no rejoin within 200 steps")
		}
		round = e.Begin()
		for w := range e.slots {
			switch e.slots[w].plan.Phase {
			case ChurnRejoin:
				rejoinWorker = w
			case ChurnLive:
				liveWorker = w
			}
		}
		if rejoinWorker < 0 {
			if _, err := round.Finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if liveWorker < 0 {
		t.Fatal("dead fixture: no live worker in the rejoin round")
	}
	step := round.Step()
	before := roundSnapshot(round)
	for _, c := range []struct {
		name                   string
		worker, step, attempts int
		want                   Admission
	}{
		{"negative id", -1, step, 1, RejectUnknownWorker},
		{"id past the cluster", workers, step, 1, RejectUnknownWorker},
		{"earlier round", rejoinWorker, step - 1, 1, RejectWrongTag},
		{"later round", rejoinWorker, step + 1, 1, RejectWrongTag},
		{"live worker", liveWorker, step, 1, RejectWrongTag},
		{"no dial", rejoinWorker, step, 0, RejectMalformed},
		{"negative dials", rejoinWorker, step, -2, RejectMalformed},
	} {
		if v := round.Rejoin(c.worker, c.step, c.attempts); v != c.want {
			t.Fatalf("%s: %v, want %v", c.name, v, c.want)
		}
		if roundSnapshot(round) != before {
			t.Fatalf("%s: the rejection moved the round", c.name)
		}
	}
	pending := round.PendingRejoins()
	if v := round.Rejoin(rejoinWorker, step, 2); v != AdmitFresh {
		t.Fatalf("scheduled rejoin: %v", v)
	}
	if round.PendingRejoins() != pending-1 {
		t.Fatalf("%d rejoins pending after one admission, %d before", round.PendingRejoins(), pending)
	}
	admitted := roundSnapshot(round)
	if v := round.Rejoin(rejoinWorker, step, 1); v != RejectDuplicate {
		t.Fatalf("second hello: %v", v)
	}
	if roundSnapshot(round) != admitted {
		t.Fatal("the duplicate hello moved the round")
	}
	res, err := round.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejoins != 1 || res.ReconnectAttempts != 2 {
		t.Fatalf("after one admission with 2 dial attempts: rejoins=%d attempts=%d", res.Rejoins, res.ReconnectAttempts)
	}
}

// TestRoundRejoinWithoutChurnIsNotScheduled: without a churn schedule the
// plan places no rejoin, so a hello offered to the round — a stray one on a
// socket backend — is RejectWrongTag and moves nothing.
func TestRoundRejoinWithoutChurnIsNotScheduled(t *testing.T) {
	r := roundTestEngine(RoundConfig{Workers: 3}, nil).Begin()
	if v := r.Rejoin(1, 0, 1); v != RejectWrongTag {
		t.Fatalf("Rejoin without a churn schedule = %v, want %v", v, RejectWrongTag)
	}
	if r.PendingRejoins() != 0 || r.Outstanding() != 3 {
		t.Fatalf("the refused rejoin moved the round: %d pending rejoins, %d outstanding", r.PendingRejoins(), r.Outstanding())
	}
}
