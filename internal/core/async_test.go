package core

import (
	"strings"
	"testing"

	"aggregathor/internal/ps"
)

// TestAsyncLockstepMatchesPlainAcrossBackends: at the experiment level, an
// async configuration demanding every slot fresh (Quorum = n) must reproduce
// the plain run's trajectories bit-for-bit on every backend, with zero
// staleness surfaced in the result.
func TestAsyncLockstepMatchesPlainAcrossBackends(t *testing.T) {
	for _, backend := range []string{BackendInProcess, BackendTCP, BackendUDP} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			base := Config{
				Experiment: "features-mlp",
				Network:    Network{Backend: backend},
				Aggregator: "median",
				F:          1,
				Workers:    7,
				Batch:      16,
				Steps:      8,
				EvalEvery:  4,
				LR:         5e-3,
				Seed:       13,
			}
			plain, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			asyncCfg := base
			asyncCfg.Network.Quorum = 7
			async, err := Run(asyncCfg)
			if err != nil {
				t.Fatal(err)
			}
			if async.AdmittedStale != 0 || async.DroppedTooStale != 0 {
				t.Fatalf("quorum-n async surfaced staleness: admitted %d, dropped %d",
					async.AdmittedStale, async.DroppedTooStale)
			}
			assertSeriesEqual(t, "accuracy", plain.Accuracy, async.Accuracy)
			assertSeriesEqual(t, "loss-vs-step", plain.LossVsStep, async.LossVsStep)
			if plain.FinalAccuracy != async.FinalAccuracy {
				t.Fatalf("final accuracy %v vs %v", plain.FinalAccuracy, async.FinalAccuracy)
			}
			if plain.SkippedRounds != async.SkippedRounds {
				t.Fatalf("skipped rounds %d vs %d", plain.SkippedRounds, async.SkippedRounds)
			}
		})
	}
}

// TestAsyncConfigGating: the experiment layer must reject every combination
// the async design cannot honour, with an error naming the conflict rather
// than a silently wrong run.
func TestAsyncConfigGating(t *testing.T) {
	base := Config{
		Experiment: "features-mlp",
		Aggregator: "median",
		Workers:    7,
		Batch:      16,
		Steps:      4,
		EvalEvery:  2,
		LR:         5e-3,
		Seed:       13,
	}
	cases := []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"lossy model broadcasts", func(c *Config) {
			c.Network.Backend = BackendUDP
			c.Network.Quorum = 6
			c.Network.ModelDropRate = 0.1
		}, "incompatible"},
		{"draco deployment", func(c *Config) {
			c.Aggregator = "draco"
			c.Network.Quorum = 6
		}, "not supported"},
		{"replicated server", func(c *Config) {
			c.ServerReplicas = 3
			c.Network.Quorum = 6
		}, "not supported"},
		{"slow workers without staleness", func(c *Config) {
			c.Network.Quorum = 6
			c.Network.SlowRate = 0.3
		}, "staleness"},
		{"quorum above n", func(c *Config) {
			c.Network.Quorum = 8
		}, "quorum"},
	}
	for _, tc := range cases {
		cfg := base
		tc.edit(&cfg)
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: invalid configuration ran", tc.name)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
			t.Errorf("%s: error %q does not name the conflict (%q)", tc.name, err, tc.want)
		}
	}
}

// TestAsyncSlowRunSurfacesExactCounters: a slow-scheduled in-process run must
// report run totals that exactly match an independent evaluation of the
// schedule over every step — including skipped rounds, whose per-round
// staleness still counts toward the totals.
func TestAsyncSlowRunSurfacesExactCounters(t *testing.T) {
	const (
		workers = 7
		steps   = 30
		seed    = int64(13)
	)
	cfg := Config{
		Experiment: "features-mlp",
		Aggregator: "average",
		Workers:    workers,
		Batch:      16,
		Steps:      steps,
		EvalEvery:  10,
		LR:         5e-3,
		Seed:       seed,
		Network:    Network{AsyncConfig: ps.AsyncConfig{Quorum: 5, Staleness: 2, SlowRate: 0.4}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc, _, _ := cfg.round()
	async := rc.Async
	wantStale, wantDropped, wantSkipped := 0, 0, 0
	for s := 0; s < steps; s++ {
		received := workers
		for id := 0; id < workers; id++ {
			tag := async.ExpectedTag(seed, s, id)
			switch {
			case tag < 0:
				wantDropped++
				received--
			case tag < s:
				wantStale++
			}
		}
		if received < cfg.Network.Quorum {
			wantSkipped++
		}
	}
	if res.AdmittedStale != wantStale || res.DroppedTooStale != wantDropped {
		t.Fatalf("run totals admitted=%d dropped=%d, schedule says %d/%d",
			res.AdmittedStale, res.DroppedTooStale, wantStale, wantDropped)
	}
	if res.SkippedRounds != wantSkipped {
		t.Fatalf("run skipped %d rounds, schedule says %d", res.SkippedRounds, wantSkipped)
	}
	if wantStale == 0 || wantDropped == 0 {
		t.Fatalf("schedule produced stale=%d dropped=%d; the counter assertions ran vacuously", wantStale, wantDropped)
	}
	if res.Diverged {
		t.Fatal("slow-scheduled run diverged")
	}
}
