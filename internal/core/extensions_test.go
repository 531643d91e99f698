package core

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"aggregathor/internal/nn"
	"aggregathor/internal/tensor"
)

func TestRunReplicatedValidation(t *testing.T) {
	// Too many Byzantine replicas for the replication degree.
	_, err := Run(Config{
		Workers: 5, Aggregator: "average",
		Steps: 1, Seed: 21,
		ServerReplicas:    3,
		ByzantineReplicas: []int{0, 1},
	})
	if err == nil {
		t.Fatal("2 Byzantine of 3 replicas accepted")
	}
	// Unsupported option combinations fail loudly.
	_, err = Run(Config{
		Workers: 5, Aggregator: "average", Steps: 1,
		ServerReplicas: 3, Network: Network{UDPLinks: 1},
	})
	if err == nil {
		t.Fatal("UDP links with replicated server accepted")
	}
}

func TestRunCheckpointAndResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	first, err := Run(Config{
		Workers: 5, F: 1, Aggregator: "multi-krum",
		Optimizer: "momentum", LR: 0.1, Batch: 16,
		Steps: 40, EvalEvery: 20, Seed: 22,
		CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.ResumedFromStep != 0 {
		t.Fatalf("fresh run reported resume from %d", first.ResumedFromStep)
	}

	// Second run resumes from the saved parameters and keeps improving.
	second, err := Run(Config{
		Workers: 5, F: 1, Aggregator: "multi-krum",
		Optimizer: "momentum", LR: 0.1, Batch: 16,
		Steps: 40, EvalEvery: 20, Seed: 22,
		CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.ResumedFromStep != 40 {
		t.Fatalf("resume step %d, want 40", second.ResumedFromStep)
	}
	start, ok := second.Accuracy.Points[0], true
	if !ok || start.Value < first.FinalAccuracy-0.1 {
		t.Fatalf("resumed run starts at %v, first run ended at %v",
			start.Value, first.FinalAccuracy)
	}
}

func TestRunCheckpointEvery(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "periodic.ckpt")
	_, err := Run(Config{
		Workers: 3, Aggregator: "average",
		Optimizer: "sgd", LR: 0.1, Batch: 8,
		Steps: 10, EvalEvery: 5, Seed: 23,
		CheckpointPath:  ckpt,
		CheckpointEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The final checkpoint must exist and carry the final step index.
	res2, err := Run(Config{
		Workers: 3, Aggregator: "average",
		Optimizer: "sgd", LR: 0.1, Batch: 8,
		Steps: 1, EvalEvery: 1, Seed: 23,
		CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ResumedFromStep != 10 {
		t.Fatalf("resume step %d, want 10", res2.ResumedFromStep)
	}
}

// TestRunRefusesUnloadableCheckpoint: only a missing checkpoint file starts
// a fresh run. One that exists and does not load — garbage bytes, or a
// model of another dimension — fails Run before training, and the file
// keeps its bytes.
func TestRunRefusesUnloadableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.ckpt")
	if err := os.WriteFile(garbage, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "foreign.ckpt")
	if err := nn.SaveCheckpointFile(foreign, 7, tensor.Vector{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{garbage, foreign} {
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Workers: 3, Aggregator: "average", Batch: 8, Steps: 2, EvalEvery: 1, CheckpointPath: path})
		if err == nil {
			t.Errorf("%s: trained from scratch (resumed from %d) instead of failing", filepath.Base(path), res.ResumedFromStep)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
			t.Errorf("%s: %d bytes became %d", filepath.Base(path), len(before), len(after))
		}
	}
}

// TestDivergedRunKeepsLastFiniteCheckpoint: a checkpoint's step is the step
// its parameters are at, so a run that diverges never writes its non-finite
// parameters — neither over an earlier run's checkpoint, which a later run
// then resumes from, nor as a fresh one.
func TestDivergedRunKeepsLastFiniteCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	cfg := Config{Workers: 3, Aggregator: "average", Optimizer: "sgd", LR: 0.1, Batch: 8, Steps: 4, EvalEvery: 2, Seed: 23,
		CheckpointPath: ckpt}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	diverging := with(cfg, func(c *Config) { c.Steps, c.CheckpointEvery, c.Attacks = 10, 1, map[int]string{0: "non-finite"} })
	res, err := Run(diverging)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverged || res.ResumedFromStep != 4 {
		t.Fatalf("diverged %v, resumed from %d: want a diverged run resumed from 4", res.Diverged, res.ResumedFromStep)
	}
	if after, _ := os.ReadFile(ckpt); !bytes.Equal(after, before) {
		t.Fatal("the diverged run overwrote the checkpoint")
	}
	step, params, err := nn.LoadCheckpointFile(ckpt)
	if err != nil || step != 4 || !params.IsFinite() {
		t.Fatalf("checkpoint at step %d, finite %v, err %v: want the step-4 finite one", step, params.IsFinite(), err)
	}
	if resumed, err := Run(cfg); err != nil || resumed.ResumedFromStep != 4 {
		t.Fatalf("resumed from %v, err %v: want 4", resumed, err)
	}

	fresh := filepath.Join(t.TempDir(), "fresh.ckpt")
	if res, err := Run(with(diverging, func(c *Config) { c.CheckpointPath = fresh })); err != nil || !res.Diverged {
		t.Fatalf("fresh diverging run: %+v, %v", res, err)
	}
	if _, err := os.Stat(fresh); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a fresh diverged run left a checkpoint (stat: %v)", err)
	}
}

func TestRunWithMedianFamilyAggregators(t *testing.T) {
	for _, agg := range []string{"geometric-median", "mean-around-median", "trimmed-mean"} {
		res, err := Run(Config{
			Workers: 7, F: 1, Aggregator: agg,
			Optimizer: "momentum", LR: 0.1, Batch: 32,
			Steps: 100, EvalEvery: 50, Seed: 24,
			Attacks: map[int]string{3: "random"},
		})
		if err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		// Chance is 0.1; each weak rule must survive one blind attacker.
		if res.FinalAccuracy < 0.3 {
			t.Fatalf("%s accuracy %v under attack", agg, res.FinalAccuracy)
		}
	}
}

func TestAllPresetsProduceTrainableModels(t *testing.T) {
	// Every preset must generate consistent datasets and a model whose
	// gradient matches its parameter dimension — including one real
	// forward/backward through the full Table-1 CNN.
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			train, test, factory := e.Make(99)
			if train.Len() == 0 || test.Len() == 0 {
				t.Fatal("empty split")
			}
			if train.Shape.Flat() != train.X.Cols {
				t.Fatalf("shape %v vs X cols %d", train.Shape, train.X.Cols)
			}
			model := factory()
			// Gradient runs Forward on rows of train.X, which panics when
			// the model's input width is not the data's.
			x, y := train.Batch([]int{0, 1})
			loss, grad := model.Gradient(x, y)
			if loss <= 0 || grad.Dim() != model.NumParams() {
				t.Fatalf("loss=%v gradDim=%d params=%d", loss, grad.Dim(), model.NumParams())
			}
			if !grad.IsFinite() {
				t.Fatal("non-finite gradient")
			}
			if e.CostDim <= 0 || e.FlopsPerSample <= 0 {
				t.Fatal("missing cost profile")
			}
		})
	}
}
