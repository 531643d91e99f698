package core

import (
	"errors"
	"fmt"
	"testing"

	"aggregathor/internal/transport"
)

// TestUDPBackendMatchesInProcessTrajectories is the end-to-end
// reproducibility gate for the lossy-datagram backend: at DropRate 0 the
// loss/accuracy trajectories of a udp run must equal the in-process run's
// bit-for-bit — honest cells and Byzantine cells alike (the analogue of
// TestTCPBackendMatchesInProcessTrajectories). Every datagram arrives, the
// float64 wire codec is lossless, the worker seeds derive from the run seed
// through the shared ps formulas, and gradients are slotted by worker id, so
// any divergence is a bug, not noise.
func TestUDPBackendMatchesInProcessTrajectories(t *testing.T) {
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
			cfg.Network.Backend = BackendUDP
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

// TestUDPBackendLossyDeterministic pins run-level reproducibility under real
// loss: two udp runs at 10% drop with the same seed produce identical
// results, and the loss series is populated (the wire carries the loss
// metadata — it used to arrive as 0 over datagrams).
func TestUDPBackendLossyDeterministic(t *testing.T) {
	cfg := Config{
		Experiment: "features-mlp",
		Network:    Network{Backend: BackendUDP, DropRate: 0.10, Recoup: "fill-random"},
		Aggregator: "multi-krum",
		F:          1,
		Workers:    7,
		Batch:      16,
		Steps:      10,
		EvalEvery:  5,
		LR:         5e-3,
		Seed:       11,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSeriesEqual(t, "accuracy", a.Accuracy, b.Accuracy)
	assertSeriesEqual(t, "loss-vs-step", a.LossVsStep, b.LossVsStep)
	if a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("final accuracy %v vs %v across identical lossy runs", a.FinalAccuracy, b.FinalAccuracy)
	}
	last, ok := a.LossVsStep.Last()
	if !ok || last.Value == 0 {
		t.Fatalf("loss series empty or zero over the lossy wire: %+v ok=%v", last, ok)
	}
}

// TestUDPBackendRejectsSimulatorOnlyOptions pins the unsupported-option
// surface: simulator-only features must fail loudly instead of silently
// running in-process.
func TestUDPBackendRejectsSimulatorOnlyOptions(t *testing.T) {
	base := Config{Network: Network{Backend: BackendUDP}, Workers: 3, Steps: 2, Batch: 4, Aggregator: "average"}
	mutate := []func(*Config){
		func(c *Config) { c.Network.UDPLinks = 1 },
		func(c *Config) { c.Vanilla = true },
		func(c *Config) { c.HijackWorkers = []int{0} },
		func(c *Config) { c.CorruptData = []int{0} },
		func(c *Config) { c.CheckpointPath = "x.ckpt" },
		func(c *Config) { c.ServerReplicas = 3 },
		func(c *Config) { c.Aggregator = "draco" },
	}
	for i, m := range mutate {
		cfg := base
		m(&cfg)
		if _, err := Run(cfg); !errors.Is(err, ErrUDPUnsupported) {
			t.Fatalf("case %d: want ErrUDPUnsupported, got %v", i, err)
		}
	}
}

// TestModelLossRejectedOffUDPBackend pins the config-plumbing validation:
// lossy model broadcasts are a udp-backend feature, and every other
// deployment must fail loudly instead of silently running the model
// channel loss-free.
func TestModelLossRejectedOffUDPBackend(t *testing.T) {
	for i, backend := range []string{"", BackendInProcess, BackendTCP} {
		cfg := Config{Network: Network{Backend: backend, ModelDropRate: 0.1}, Workers: 3, Steps: 2, Batch: 4,
			Aggregator: "average"}
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: backend %q accepted ModelDropRate", i, backend)
		}
		cfg = Config{Network: Network{Backend: backend, ModelRecoup: "stale"}, Workers: 3, Steps: 2, Batch: 4,
			Aggregator: "average"}
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: backend %q accepted ModelRecoup stale", i, backend)
		}
	}
}

// TestUDPBackendModelLossDeterministic pins run-level reproducibility of
// the footnote-12 channel at the core layer: two runs with 10% loss on
// both the model downlink and the gradient uplink under the stale policy
// produce identical series, and stale gradients are actually reported.
func TestUDPBackendModelLossDeterministic(t *testing.T) {
	cfg := Config{
		Experiment: "features-mlp",
		Network:    Network{Backend: BackendUDP, DropRate: 0.10, Recoup: "fill-random", ModelDropRate: 0.10, ModelRecoup: "stale"},
		Aggregator: "multi-krum",
		F:          1,
		Workers:    7,
		Batch:      16,
		Steps:      10,
		EvalEvery:  5,
		LR:         5e-3,
		Seed:       11,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSeriesEqual(t, "accuracy", a.Accuracy, b.Accuracy)
	assertSeriesEqual(t, "loss-vs-step", a.LossVsStep, b.LossVsStep)
	if a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("final accuracy %v vs %v across identical lossy-model runs", a.FinalAccuracy, b.FinalAccuracy)
	}
	if a.StaleGradients == 0 {
		t.Fatal("10% model loss under the stale policy reported no stale gradients")
	}
	if a.StaleGradients != b.StaleGradients {
		t.Fatalf("stale gradient counts %d vs %d across identical runs", a.StaleGradients, b.StaleGradients)
	}
}

// TestInProcessLossyMatchesUDPBackend pins the one loss model: an in-process
// run with every worker on the datagram link and a udp-backend run with the
// same seed and loss axes are one trajectory — bit-identical parameters,
// per-step loss series and round counters — under every recoup policy, on
// both wire widths, attack-free and under a blind and an informed attack.
// Both sides run the plan's (seed, step, worker) drop masks and the engine's
// recoup; the in-process cluster only skips the sockets.
func TestInProcessLossyMatchesUDPBackend(t *testing.T) {
	const n = 7
	for _, recoup := range []string{"drop-gradient", "fill-nan", "fill-random"} {
		for _, wire := range []string{transport.WireFloat64, transport.WireFloat32} {
			for _, atk := range []string{"none", "reversed", "little-is-enough"} {
				t.Run(fmt.Sprintf("%v/%s/%s", recoup, wire, atk), func(t *testing.T) {
					cfg := Config{
						Experiment: "features-mlp", Aggregator: "median", F: 1, Workers: n,
						Batch: 16, Steps: 12, EvalEvery: 1, LR: 5e-3, Seed: 17,
						Network: Network{DropRate: 0.10, Recoup: recoup, WireFormat: wire},
					}
					if atk != "none" {
						cfg.Attacks = map[int]string{n - 1: atk}
					}
					inproc, err := Run(with(cfg, func(c *Config) { c.Network.UDPLinks = n }))
					if err != nil {
						t.Fatal(err)
					}
					udp, err := Run(with(cfg, func(c *Config) { c.Network.Backend = BackendUDP }))
					if err != nil {
						t.Fatal(err)
					}
					assertSeriesEqual(t, "loss-vs-step", inproc.LossVsStep, udp.LossVsStep)
					assertSeriesEqual(t, "accuracy", inproc.Accuracy, udp.Accuracy)
					if inproc.Totals != udp.Totals {
						t.Fatalf("round counters %+v in-process, %+v over udp", inproc.Totals, udp.Totals)
					}
					if len(inproc.params) == 0 || paramsSHA256(inproc.params) != paramsSHA256(udp.params) {
						t.Fatalf("final parameters (%d of them) differ in their bits between in-process and udp", len(inproc.params))
					}
				})
			}
		}
	}
}
