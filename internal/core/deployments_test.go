package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
)

// The replicated server and the Draco baseline are assembled by Run from the
// same parts as the plain in-process cluster. These tests hold the three
// in-process deployments to one contract: what Validate accepts Run runs,
// every axis a deployment accepts it honours, and the cells whose trajectory
// the shared round engine must not have moved are pinned to their bits.

var (
	dracoBaseline = Config{
		Workers: 9, F: 1, Aggregator: "draco",
		Optimizer: "momentum", LR: 0.1, Batch: 32,
		Steps: 100, EvalEvery: 25, Seed: 6,
		Attacks: map[int]string{4: "reversed"},
	}
	replicatedBaseline = Config{
		Workers: 7, F: 1, Aggregator: "multi-krum",
		Optimizer: "momentum", LR: 0.1, Batch: 32,
		Steps: 150, EvalEvery: 50, Seed: 20,
		ServerReplicas:    4,
		ByzantineReplicas: []int{1},
	}
)

// with returns a copy of cfg edited by f.
func with(cfg Config, f func(*Config)) Config {
	f(&cfg)
	return cfg
}

// finalParams runs cfg with a checkpoint file and returns the parameters the
// run ended on.
func finalParams(t *testing.T, cfg Config) (*Result, tensor.Vector) {
	t.Helper()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "final.ckpt")
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, params, err := nn.LoadCheckpointFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	return res, params
}

// paramsSHA256 hashes the little-endian bit patterns of v.
func paramsSHA256(v tensor.Vector) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDeploymentsKeepParentTrajectories pins the final parameter bits of the
// attack-free / reversed-only / unregularised cells to what the hand-written
// Draco and replicated rounds produced at the commit before they moved onto
// the round engine (66d7caf; recorded there with a parameter dump at the end
// of runTraining). A reversed member is outvoted exactly, so Draco's three
// cells share one hash.
func TestDeploymentsKeepParentTrajectories(t *testing.T) {
	const (
		dracoSHA      = "a5be52c9f024ff9bbd9d35a0358f06b672678f3cbe476cc3a8cd093fe793d28c"
		replicatedSHA = "68023138839ca855f986cc8b197a5697d81fd97c9a075f0882bdb718a913fd47"
	)
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"draco baseline (worker 4 reversed)", dracoBaseline, dracoSHA},
		{"draco, worker 2 reversed", with(dracoBaseline, func(c *Config) { c.Attacks = map[int]string{2: "reversed"} }), dracoSHA},
		{"draco, attack-free", with(dracoBaseline, func(c *Config) { c.Attacks = nil }), dracoSHA},
		{"replicated R=4, replica 1 lying", replicatedBaseline, replicatedSHA},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, params := finalParams(t, tc.cfg); paramsSHA256(params) != tc.want {
				t.Fatalf("final parameters hash to %s, the parent's to %s", paramsSHA256(params), tc.want)
			}
		})
	}
}

// TestInProcessDeploymentsHonourEveryAxis: an option a deployment accepts
// changes what it does. Every row failed before the replicated server and
// Draco ran on the round engine — they silently dropped the option.
func TestInProcessDeploymentsHonourEveryAxis(t *testing.T) {
	short := func(cfg Config) Config { cfg.Steps, cfg.EvalEvery = 40, 20; return cfg }
	replicated, dracoCfg := short(replicatedBaseline), short(with(dracoBaseline, func(c *Config) { c.Attacks = nil }))

	t.Run("replicated/attack", func(t *testing.T) {
		res, err := Run(with(replicated, func(c *Config) {
			c.Aggregator, c.F, c.ServerReplicas, c.ByzantineReplicas = "average", 0, 3, nil
			c.Attacks = map[int]string{0: "non-finite"}
		}))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Diverged {
			t.Fatalf("averaging a non-finite gradient trained to accuracy %v instead of diverging", res.FinalAccuracy)
		}
	})
	for name, cfg := range map[string]Config{"replicated": replicated, "draco": dracoCfg} {
		t.Run(name+"/L2", func(t *testing.T) {
			_, plain := finalParams(t, cfg)
			_, decayed := finalParams(t, with(cfg, func(c *Config) { c.L2 = 0.5 }))
			if paramsSHA256(plain) == paramsSHA256(decayed) {
				t.Fatal("L2 = 0.5 left the final parameters unchanged")
			}
		})
		t.Run(name+"/checkpoint", func(t *testing.T) {
			cfg := with(cfg, func(c *Config) { c.CheckpointPath = filepath.Join(t.TempDir(), "model.ckpt") })
			first, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first.ResumedFromStep != 0 || second.ResumedFromStep != cfg.Steps {
				t.Fatalf("resumed from %d then %d, want 0 then %d", first.ResumedFromStep, second.ResumedFromStep, cfg.Steps)
			}
		})
	}
	t.Run("draco/corrupt-data", func(t *testing.T) {
		_, clean := finalParams(t, dracoCfg)
		res, poisoned := finalParams(t, with(dracoCfg, func(c *Config) { c.CorruptData = []int{3, 4, 5} }))
		if paramsSHA256(clean) == paramsSHA256(poisoned) {
			t.Fatal("a whole group on corrupted data left the final parameters unchanged")
		}
		// Each member's corruption is its own, so the group never agrees.
		if res.SkippedRounds != dracoCfg.Steps {
			t.Fatalf("%d of %d rounds skipped without a group majority", res.SkippedRounds, dracoCfg.Steps)
		}
	})
	t.Run("replicated/lying-replica-and-reversed-worker", func(t *testing.T) {
		// What Run assembles for this config, built by hand: only the cluster
		// itself can say whether its correct replicas still agree.
		train := func(attacks map[int]string) *ps.ReplicatedCluster {
			cfg := with(replicated, func(c *Config) { c.Attacks = attacks })
			exp, err := LookupExperiment("features-mlp")
			if err != nil {
				t.Fatal(err)
			}
			data, _, factory := exp.Make(cfg.Seed)
			workers, err := buildWorkers(cfg, data, nil)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := ps.NewReplicated(ps.ReplicatedConfig{
				ModelFactory: factory, ServerReplicas: cfg.ServerReplicas, ByzantineReplicas: cfg.ByzantineReplicas,
				Workers: workers, GAR: gar.NewMultiKrum(cfg.F), Batch: cfg.Batch, Seed: cfg.Seed,
				OptimizerFactory: func() opt.Optimizer { return &opt.SGD{Schedule: opt.Fixed{Rate: cfg.LR}, Momentum: 0.9} },
			})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 50; step++ {
				if res, err := cl.Step(); err != nil || res.Skipped {
					t.Fatalf("step %d: %+v, %v", step, res, err)
				}
			}
			return cl
		}
		attacked, clean := train(map[int]string{0: "reversed"}), train(nil)
		if !attacked.CorrectReplicasAgree() {
			t.Fatal("correct replicas diverged (SMR invariant broken)")
		}
		if paramsSHA256(attacked.Params()) == paramsSHA256(clean.Params()) {
			t.Fatal("a reversed worker left the trajectory unchanged: the attack never ran")
		}
	})
}

// TestDracoLossSeriesIsDeterministic: the loss mean is summed in worker-id
// order, not in the order worker goroutines finish.
func TestDracoLossSeriesIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := with(dracoBaseline, func(c *Config) { c.Steps, c.EvalEvery = 20, 1 })
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for rerun := 1; rerun < 20; rerun++ {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.LossVsStep, first.LossVsStep) {
			t.Fatalf("rerun %d: loss series differs:\n %v\n %v", rerun, res.LossVsStep.Points, first.LossVsStep.Points)
		}
	}
}

// TestValidateAgreesWithRun: Validate and Run refuse the same configs with
// the same error, and a config Validate accepts completes a round on each
// in-process deployment.
func TestValidateAgreesWithRun(t *testing.T) {
	one := func(cfg Config) Config { cfg.Steps, cfg.EvalEvery = 1, 1; return cfg }
	replicated, dracoCfg := one(replicatedBaseline), one(dracoBaseline)
	for _, tc := range []struct {
		name string
		cfg  Config
		is   error // a sentinel the refusal must wrap, if it has one
	}{
		{"UDPLinks below 0", with(replicated, func(c *Config) { c.ServerReplicas, c.ByzantineReplicas, c.UDPLinks = 0, nil, -3 }), nil},
		{"more UDPLinks than workers", with(replicated, func(c *Config) { c.ServerReplicas, c.ByzantineReplicas, c.UDPLinks = 0, nil, 40 }), nil},
		{"replicated + UDPLinks", with(replicated, func(c *Config) { c.UDPLinks = 1 }), nil},
		{"replicated + Vanilla", with(replicated, func(c *Config) { c.Vanilla = true }), nil},
		{"replicated + HijackWorkers", with(replicated, func(c *Config) { c.HijackWorkers = []int{0} }), nil},
		{"replicated + async", with(replicated, func(c *Config) { c.Async.Quorum = 5 }), nil},
		{"a third of the replicas Byzantine", with(replicated, func(c *Config) { c.ServerReplicas, c.ByzantineReplicas = 3, []int{0} }), nil},
		{"replica id out of range", with(replicated, func(c *Config) { c.ByzantineReplicas = []int{4} }), nil},
		{"negative replica id", with(replicated, func(c *Config) { c.ByzantineReplicas = []int{-1} }), nil},
		{"draco + UDPLinks", with(dracoCfg, func(c *Config) { c.UDPLinks = 1 }), ErrDracoUnsupported},
		{"draco + Vanilla", with(dracoCfg, func(c *Config) { c.Vanilla = true }), ErrDracoUnsupported},
		{"draco + HijackWorkers", with(dracoCfg, func(c *Config) { c.HijackWorkers = []int{0} }), ErrDracoUnsupported},
		{"draco + async", with(dracoCfg, func(c *Config) { c.Async.Quorum = 5 }), ErrDracoUnsupported},
		{"draco + replicated server", with(dracoCfg, func(c *Config) { c.ServerReplicas = 4 }), ErrDracoUnsupported},
		{"draco n < 2f+1", with(dracoCfg, func(c *Config) { c.Workers, c.F, c.Attacks = 4, 2, nil }), ErrDracoUnsupported},
		{"draco with more Byzantine workers than f", with(dracoCfg, func(c *Config) { c.Attacks = map[int]string{1: "reversed", 4: "reversed"} }), ErrDracoUnsupported},
		{"draco Byzantine worker out of range", with(dracoCfg, func(c *Config) { c.Attacks = map[int]string{9: "reversed"} }), ErrDracoUnsupported},
	} {
		t.Run(tc.name, func(t *testing.T) {
			verr := tc.cfg.Validate()
			_, rerr := Run(tc.cfg)
			if verr == nil || rerr == nil || verr.Error() != rerr.Error() {
				t.Fatalf("Validate: %v\nRun:      %v", verr, rerr)
			}
			if tc.is != nil && (!errors.Is(verr, tc.is) || !errors.Is(rerr, tc.is)) {
				t.Fatalf("%v does not wrap %v", verr, tc.is)
			}
		})
	}
	for name, cfg := range map[string]Config{
		"plain":      with(replicated, func(c *Config) { c.ServerReplicas, c.ByzantineReplicas = 0, nil }),
		"replicated": replicated,
		"draco":      dracoCfg,
	} {
		t.Run("legal/"+name, func(t *testing.T) {
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Validate accepted what Run refuses: %v", err)
			}
			if res.SkippedRounds != 0 || res.Throughput.GradientsPerSecond() == 0 {
				t.Fatalf("round 0 aggregated nothing: %+v", res)
			}
		})
	}
}
