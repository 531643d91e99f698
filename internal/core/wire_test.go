package core

import (
	"testing"

	"aggregathor/internal/transport"
)

// TestWireFormatRejectedOffLossyLinks pins the config-plumbing validation
// for the wire-format axis: only deployments with a lossy wire (the udp
// backend, or in-process lossy pipes via UDPLinks) have a coordinate width
// to choose, and a "float32" request anywhere else must fail loudly rather
// than silently training on float64 tensors. Unknown names fail everywhere.
func TestWireFormatRejectedOffLossyLinks(t *testing.T) {
	for i, backend := range []string{"", BackendInProcess, BackendTCP} {
		cfg := Config{Network: Network{Backend: backend, WireFormat: transport.WireFloat32}, Workers: 3, Steps: 2, Batch: 4,
			Aggregator: "average"}
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: backend %q accepted wire format float32 without lossy links", i, backend)
		}
	}
	for i, backend := range []string{"", BackendInProcess, BackendTCP, BackendUDP} {
		cfg := Config{Network: Network{Backend: backend, WireFormat: "float16"}, Workers: 3, Steps: 2, Batch: 4,
			Aggregator: "average"}
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: backend %q accepted unknown wire format", i, backend)
		}
	}
}

// TestWireFormatFloat64IsExplicitDefault pins that naming the default
// ("float64") is a no-op: the run equals the empty-string run bit-for-bit
// on every backend that accepts it.
func TestWireFormatFloat64IsExplicitDefault(t *testing.T) {
	cfg := Config{
		Experiment: "features-mlp",
		Network:    Network{Backend: BackendUDP, DropRate: 0.10, Recoup: "fill-random"},
		Aggregator: "median",
		Workers:    5,
		Batch:      16,
		Steps:      6,
		EvalEvery:  3,
		LR:         5e-3,
		Seed:       7,
	}
	implicit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Network.WireFormat = transport.WireFloat64
	explicit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSeriesEqual(t, "accuracy", implicit.Accuracy, explicit.Accuracy)
	assertSeriesEqual(t, "loss-vs-step", implicit.LossVsStep, explicit.LossVsStep)
	if implicit.FinalAccuracy != explicit.FinalAccuracy {
		t.Fatalf("final accuracy %v vs %v between implicit and explicit float64",
			implicit.FinalAccuracy, explicit.FinalAccuracy)
	}
}

// TestUDPBackendFloat32ByzantineSmoke is the float32 Byzantine smoke cell:
// {multi-krum, median} × {reversed, non-finite} over real UDP datagrams at
// 10% loss on the float32 wire. Each cell must converge (the GAR discards
// the attacker despite quantisation), stay finite, and reproduce
// bit-identically across reruns — the float32 rounding is deterministic.
func TestUDPBackendFloat32ByzantineSmoke(t *testing.T) {
	for _, agg := range []string{"multi-krum", "median"} {
		for _, atk := range []string{"reversed", "non-finite"} {
			t.Run(agg+"/"+atk, func(t *testing.T) {
				cfg := Config{
					Experiment: "features-mlp",
					Network:    Network{Backend: BackendUDP, DropRate: 0.10, Recoup: "fill-random", WireFormat: transport.WireFloat32},
					Aggregator: agg,
					F:          1,
					Workers:    7,
					Batch:      16,
					Steps:      8,
					EvalEvery:  4,
					LR:         5e-3,
					Seed:       13,
					Attacks:    map[int]string{6: atk},
				}
				a, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if a.Diverged {
					t.Fatalf("%s diverged under %s on the float32 wire", agg, atk)
				}
				b, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertSeriesEqual(t, "accuracy", a.Accuracy, b.Accuracy)
				assertSeriesEqual(t, "loss-vs-step", a.LossVsStep, b.LossVsStep)
				if a.FinalAccuracy != b.FinalAccuracy {
					t.Fatalf("final accuracy %v vs %v across identical float32 runs",
						a.FinalAccuracy, b.FinalAccuracy)
				}
			})
		}
	}
}

// TestInProcessLossyPipeFollowsWireFormat (named for the per-worker pipes the
// in-process datagram link replaced) pins that the link follows the
// WireFormat axis: at 10% drop a float32 run differs from the float64 one
// (the width knob is live) and each is deterministic, and float64 at drop
// rate 0 is lossless — it reproduces the run with no link at all.
func TestInProcessLossyPipeFollowsWireFormat(t *testing.T) {
	cfg := Config{
		Experiment: "features-mlp",
		Aggregator: "median",
		Workers:    5,
		Batch:      16,
		Steps:      8,
		EvalEvery:  4,
		LR:         5e-3,
		Seed:       9,
		Network:    Network{UDPLinks: 5, DropRate: 0.10, Recoup: "fill-random"},
	}
	run := func(cfg Config) *Result {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	differ := func(a, b *Result) bool { return paramsSHA256(a.params) != paramsSHA256(b.params) }
	f64 := run(cfg)
	if again := run(cfg); differ(f64, again) {
		t.Fatal("two float64 runs over the lossy link ended on different parameters")
	}
	f32 := run(with(cfg, func(c *Config) { c.Network.WireFormat = transport.WireFloat32 }))
	if !differ(f64, f32) {
		t.Fatal("the float32 link produced the exact float64 trajectory: the wire-format knob is dead")
	}
	if again := run(with(cfg, func(c *Config) { c.Network.WireFormat = transport.WireFloat32 })); differ(f32, again) {
		t.Fatal("two float32 runs over the lossy link ended on different parameters")
	}
	clean, direct := run(with(cfg, func(c *Config) { c.Network.DropRate = 0 })), run(with(cfg, func(c *Config) { c.Network.DropRate, c.Network.UDPLinks = 0, 0 }))
	assertSeriesEqual(t, "loss-vs-step", clean.LossVsStep, direct.LossVsStep)
	if differ(clean, direct) {
		t.Fatal("the float64 link at drop rate 0 moved the trajectory: the wire round trip is not lossless")
	}
	if rounded := run(with(cfg, func(c *Config) { c.Network.DropRate, c.Network.WireFormat = 0, transport.WireFloat32 })); !differ(rounded, direct) {
		t.Fatal("the float32 link at drop rate 0 reproduced the float64 trajectory: no coordinate crossed the wire encoding")
	}
}
