package core

import (
	"errors"
	"testing"

	"aggregathor/internal/metrics"
)

// assertSeriesEqual requires two metric series to match point-for-point,
// bit-exactly: the tcp backend's whole value proposition is that a socket
// round reproduces the in-process round, not merely approximates it.
func assertSeriesEqual(t *testing.T, name string, a, b metrics.Series) {
	t.Helper()
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s: %d points vs %d", name, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		p, q := a.Points[i], b.Points[i]
		if p.Step != q.Step || p.Time != q.Time || p.Value != q.Value {
			t.Fatalf("%s: point %d diverged: %+v vs %+v", name, i, p, q)
		}
	}
}

// TestTCPBackendMatchesInProcessTrajectories is the end-to-end
// reproducibility gate for the socket backend: with identical seeds the
// loss/accuracy trajectories of a tcp run must equal the in-process run's
// bit-for-bit — honest cells and Byzantine cells alike. The float64 wire
// codec is lossless and the worker sampler/attack seeds derive from the run
// seed through the shared ps formulas, so any divergence is a bug, not
// noise.
func TestTCPBackendMatchesInProcessTrajectories(t *testing.T) {
	cases := []struct {
		name    string
		attacks map[int]string
	}{
		{name: "honest"},
		{name: "blind-byzantine", attacks: map[int]string{6: "reversed"}},
		{name: "omniscient-byzantine", attacks: map[int]string{6: "omniscient"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Experiment: "features-mlp",
				Aggregator: "multi-krum",
				F:          1,
				Workers:    7,
				Batch:      16,
				Steps:      12,
				EvalEvery:  4,
				LR:         5e-3,
				Seed:       3,
				Attacks:    tc.attacks,
			}
			inproc, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Network.Backend = BackendTCP
			dist, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSeriesEqual(t, "accuracy", inproc.Accuracy, dist.Accuracy)
			assertSeriesEqual(t, "loss-vs-step", inproc.LossVsStep, dist.LossVsStep)
			if inproc.FinalAccuracy != dist.FinalAccuracy {
				t.Fatalf("final accuracy %v vs %v", inproc.FinalAccuracy, dist.FinalAccuracy)
			}
			if inproc.SkippedRounds != dist.SkippedRounds {
				t.Fatalf("skipped rounds %d vs %d", inproc.SkippedRounds, dist.SkippedRounds)
			}
			if inproc.Breakdown != dist.Breakdown {
				t.Fatalf("latency breakdown diverged: %+v vs %+v", inproc.Breakdown, dist.Breakdown)
			}
		})
	}
}

// TestTCPBackendRejectsSimulatorOnlyOptions pins the unsupported-option
// surface: simulator-only features must fail loudly instead of silently
// running in-process.
func TestTCPBackendRejectsSimulatorOnlyOptions(t *testing.T) {
	base := Config{Network: Network{Backend: BackendTCP}, Workers: 3, Steps: 2, Batch: 4, Aggregator: "average"}
	mutate := []func(*Config){
		func(c *Config) { c.Network.UDPLinks = 1 },
		func(c *Config) { c.Vanilla = true },
		func(c *Config) { c.HijackWorkers = []int{0} },
		func(c *Config) { c.CorruptData = []int{0} },
		func(c *Config) { c.CheckpointPath = "x.ckpt" },
		func(c *Config) { c.ServerReplicas = 3 },
		func(c *Config) { c.Aggregator = "draco" },
		func(c *Config) { c.Network.DropRate = 0.1 },
	}
	for i, m := range mutate {
		cfg := base
		m(&cfg)
		if _, err := Run(cfg); !errors.Is(err, ErrTCPUnsupported) {
			t.Fatalf("case %d: want ErrTCPUnsupported, got %v", i, err)
		}
	}
	if _, err := Run(Config{Network: Network{Backend: "grpc"}}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}
