package core

import (
	"path/filepath"
	"testing"
)

func TestRunReplicatedServer(t *testing.T) {
	res, err := Run(Config{
		Workers: 7, F: 1, Aggregator: "multi-krum",
		Optimizer: "momentum", LR: 0.1, Batch: 32,
		Steps: 150, EvalEvery: 50, Seed: 20,
		ServerReplicas:    4,
		ByzantineReplicas: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.35 {
		t.Fatalf("replicated-server accuracy %v", res.FinalAccuracy)
	}
}

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
		ServerReplicas: 3, UDPLinks: 1,
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

func TestThroughputScanTFBaseline(t *testing.T) {
	counts := []int{2, 18}
	tf := ThroughputScan("tf", 0, counts, 1_756_426, 2e8, 100)
	avg := ThroughputScan("average", 0, counts, 1_756_426, 2e8, 100)
	if tf[18] <= avg[18] {
		t.Fatalf("tf (%v) must beat framework averaging (%v): no aggregation cost", tf[18], avg[18])
	}
}
