package ps

import (
	"math/rand"
	"testing"

	"aggregathor/internal/attack"
	"aggregathor/internal/data"
	"aggregathor/internal/draco"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
)

// dracoCluster assembles a repetition-scheme Draco deployment the way core
// does: an ordinary cluster whose workers sample their group's shared batch,
// whose Byzantine members reverse their gradient, whose leftover workers are
// silent, and whose rule is the plan.
func dracoCluster(n, f, batch int, byz []int, factory func() *nn.Network, train *data.Dataset) (*Cluster, error) {
	plan, err := draco.NewPlan(n, f, draco.Repetition)
	if err != nil {
		return nil, err
	}
	workers := make([]WorkerConfig, n)
	for i := range workers {
		workers[i] = WorkerConfig{
			Sampler: &data.GroupSampler{SharedBatch: data.SharedBatch{DS: train}, Group: i / plan.Redundancy(), Seed: 23},
			Silent:  plan.WorkerLoad(i) == 0,
		}
	}
	for _, w := range byz {
		workers[w].Attack = attack.Reversed{}
	}
	return New(Config{
		ModelFactory: factory,
		Workers:      workers,
		GAR:          plan,
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}, Momentum: 0.9},
		Batch:        batch,
	})
}

func dracoFixture(t *testing.T, n, f int, byz []int) (*Cluster, *data.Dataset) {
	t.Helper()
	ds := data.SyntheticFeatures(400, 12, 4, 21)
	ds.MinMaxScale()
	train, test := ds.Split(0.8)
	c, err := dracoCluster(n, f, 32, byz, func() *nn.Network {
		return nn.NewMLP(12, []int{24}, 4, rand.New(rand.NewSource(22)))
	}, train)
	if err != nil {
		t.Fatal(err)
	}
	return c, test
}

func TestDracoValidation(t *testing.T) {
	ds := data.SyntheticFeatures(40, 4, 2, 1)
	factory := func() *nn.Network { return nn.NewMLP(4, nil, 2, rand.New(rand.NewSource(1))) }
	if _, err := dracoCluster(3, 1, 4, nil, nil, ds); err == nil {
		t.Fatal("missing fields accepted")
	}
	c, err := dracoCluster(4, 1, 4, []int{1}, factory, ds)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// One group of three and a silent leftover: three gradients a round.
	if res, err := c.Step(); err != nil || res.Skipped || res.Received != 3 {
		t.Fatalf("round 0: %+v, %v", res, err)
	}
	// The plan is the rule, so the cluster holds it to its 2f+1 floor.
	plan, err := draco.NewPlan(3, 1, draco.Repetition)
	if err != nil {
		t.Fatal(err)
	}
	short := c.cfg
	short.Workers, short.GAR = short.Workers[:2], plan
	if _, err := New(short); err == nil {
		t.Fatal("two workers accepted for a plan that needs 2f+1 = 3")
	}
	// Two liars in a group of three leave no majority: the round is skipped.
	c, err = dracoCluster(3, 1, 4, []int{0, 1}, factory, ds)
	if err != nil {
		t.Fatal(err)
	}
	c.cfg.Workers[1].Attack = attack.Random{}
	if res, err := c.Step(); err != nil || !res.Skipped {
		t.Fatalf("round without a group majority: %+v, %v", res, err)
	}
}

func TestDracoHonestTraining(t *testing.T) {
	c, test := dracoFixture(t, 6, 1, nil)
	for i := 0; i < 120; i++ {
		res, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.Skipped {
			t.Fatalf("honest draco round skipped at step %d", i)
		}
	}
	if acc := c.Model().Accuracy(test.X, test.Y); acc < 0.6 {
		t.Fatalf("draco accuracy %v", acc)
	}
	if c.StepCount() != 120 {
		t.Fatalf("step count %d", c.StepCount())
	}
}

func TestDracoSurvivesReversedGradientWorker(t *testing.T) {
	c, test := dracoFixture(t, 6, 1, []int{2})
	for i := 0; i < 120; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if acc := c.Model().Accuracy(test.X, test.Y); acc < 0.6 {
		t.Fatalf("draco accuracy %v with Byzantine worker", acc)
	}
}

func TestDracoMatchesPlainTrainingWhenHonest(t *testing.T) {
	// With no Byzantine workers, Draco decode = mean of group gradients —
	// training must make the same kind of progress as plain averaging.
	c, test := dracoFixture(t, 3, 1, nil)
	initial := c.Model().Accuracy(test.X, test.Y)
	for i := 0; i < 100; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	final := c.Model().Accuracy(test.X, test.Y)
	if final <= initial {
		t.Fatalf("no progress: %v -> %v", initial, final)
	}
}

func TestSharedBatchDeterminism(t *testing.T) {
	ds := data.SyntheticFeatures(50, 4, 2, 30)
	sb := data.SharedBatch{DS: ds}
	x1, y1 := sb.GroupBatch(2, 7, 8, 99)
	x2, y2 := sb.GroupBatch(2, 7, 8, 99)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("group batch must be deterministic")
		}
	}
	for i := range x1.Data {
		if x1.Data[i] != x2.Data[i] {
			t.Fatal("group batch data must be deterministic")
		}
	}
	// Different group or step must (generically) differ.
	x3, _ := sb.GroupBatch(3, 7, 8, 99)
	same := true
	for i := range x1.Data {
		if x1.Data[i] != x3.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different groups got identical batches")
	}
}
