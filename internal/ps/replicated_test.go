package ps

import (
	"errors"
	"testing"

	"aggregathor/internal/gar"
	"aggregathor/internal/opt"
)

func TestReplicatedValidation(t *testing.T) {
	train, _, factory := testFixture(33)
	base := ReplicatedConfig{
		ModelFactory:   factory,
		ServerReplicas: 4,
		Workers:        honestWorkers(train, 5),
		GAR:            gar.Average{},
		OptimizerFactory: func() opt.Optimizer {
			return &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}}
		},
		Batch: 8,
	}
	if _, err := NewReplicated(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.GAR = nil
	if _, err := NewReplicated(bad); err == nil {
		t.Fatal("missing GAR accepted")
	}
	bad = base
	bad.ServerReplicas = 0
	if _, err := NewReplicated(bad); err == nil {
		t.Fatal("zero replicas accepted")
	}
	bad = base
	bad.ByzantineReplicas = []int{9}
	if _, err := NewReplicated(bad); err == nil {
		t.Fatal("out-of-range Byzantine replica accepted")
	}
	bad = base
	bad.ByzantineReplicas = []int{0, 1} // 2 byz need R >= 7
	if _, err := NewReplicated(bad); err == nil {
		t.Fatal("too many Byzantine replicas accepted")
	}
}

func TestReplicatedHonestTrainingAgrees(t *testing.T) {
	train, test, factory := testFixture(34)
	c, err := NewReplicated(ReplicatedConfig{
		ModelFactory:   factory,
		ServerReplicas: 3,
		Workers:        honestWorkers(train, 7),
		GAR:            gar.NewMultiKrum(1),
		OptimizerFactory: func() opt.Optimizer {
			return &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}, Momentum: 0.9}
		},
		Batch: 32,
		Seed:  35,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		res, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.Skipped {
			t.Fatalf("honest replicated round skipped at step %d", i)
		}
	}
	if !c.CorrectReplicasAgree() {
		t.Fatal("correct replicas diverged (SMR invariant broken)")
	}
	if acc := c.Model().Accuracy(test.X, test.Y); acc < 0.6 {
		t.Fatalf("replicated training accuracy %v", acc)
	}
	if c.step != 150 {
		t.Fatalf("model-update index %d after 150 rounds", c.step)
	}
}

func TestReplicatedSurvivesByzantineReplica(t *testing.T) {
	train, test, factory := testFixture(36)
	c, err := NewReplicated(ReplicatedConfig{
		ModelFactory:      factory,
		ServerReplicas:    4,
		ByzantineReplicas: []int{2},
		Workers:           honestWorkers(train, 7),
		GAR:               gar.NewMultiKrum(1),
		OptimizerFactory: func() opt.Optimizer {
			return &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}, Momentum: 0.9}
		},
		Batch: 32,
		Seed:  37,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !c.CorrectReplicasAgree() {
		t.Fatal("correct replicas diverged under a Byzantine replica")
	}
	if acc := c.Model().Accuracy(test.X, test.Y); acc < 0.6 {
		t.Fatalf("accuracy %v with a lying server replica", acc)
	}
}

func TestReplicatedQuorumLossDetected(t *testing.T) {
	// Build a 4-replica cluster, then mark two replicas Byzantine by hand
	// (bypassing the constructor's guard) — the quorum must fail loudly
	// rather than let a forged model through.
	train, _, factory := testFixture(38)
	c, err := NewReplicated(ReplicatedConfig{
		ModelFactory:      factory,
		ServerReplicas:    4,
		ByzantineReplicas: []int{0},
		Workers:           honestWorkers(train, 5),
		GAR:               gar.Average{},
		OptimizerFactory: func() opt.Optimizer {
			return &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}}
		},
		Batch: 8,
		Seed:  39,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.byzReplica[1] = true // now 2 of 4 lie; quorum is 2*4/3+1 = 3 > 2 honest
	if _, err := c.Step(); !errors.Is(err, ErrNoModelQuorum) {
		t.Fatalf("want ErrNoModelQuorum, got %v", err)
	}
}

func TestReplicatedMatchesSingleServer(t *testing.T) {
	// With everything honest and deterministic, a replicated deployment
	// must produce the same model as the plain single-server cluster.
	train, _, factory := testFixture(40)
	single, err := New(Config{
		ModelFactory: factory,
		Workers:      honestWorkers(train, 5),
		GAR:          gar.NewMultiKrum(1),
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:        16,
	})
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := NewReplicated(ReplicatedConfig{
		ModelFactory:   factory,
		ServerReplicas: 3,
		Workers:        honestWorkers(train, 5),
		GAR:            gar.NewMultiKrum(1),
		OptimizerFactory: func() opt.Optimizer {
			return &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}}
		},
		Batch: 16,
		Seed:  41,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := single.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := replicated.Step(); err != nil {
			t.Fatal(err)
		}
	}
	a := single.Params()
	b := replicated.Model().ParamsVector()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replicated model diverged from single-server at param %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestReplicatedStepAllocs: past the first step, a replicated step allocates
// what a plain cluster's step on the same workers does plus one StepResult
// per extra correct replica. A Byzantine replica's proposal is redrawn in a
// kept buffer from one reseeded rng and the vote counts in a kept
// fingerprint slice, so net of the StepResults a lying replica costs no
// allocation; nor does a hijacker's remote write, drawn in one kept buffer.
func TestReplicatedStepAllocs(t *testing.T) {
	train, _, factory := testFixture(42)
	sgd := func() opt.Optimizer { return &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}} }
	plain, err := New(Config{ModelFactory: factory, Workers: honestWorkers(train, 7), GAR: gar.Average{}, Optimizer: sgd(), Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	step := func(c interface{ Step() (*StepResult, error) }) func() {
		return func() {
			if _, err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := testing.AllocsPerRun(50, step(plain))
	hijackers := honestWorkers(train, 7)
	hijackers[0].HijackParams = true
	vanilla, err := New(Config{ModelFactory: factory, Workers: hijackers, GAR: gar.Average{}, Optimizer: sgd(), Batch: 8, Mode: Vanilla})
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, step(vanilla)); got != base {
		t.Errorf("a step with a hijacker allocates %v, one without %v", got, base)
	}
	var net []float64
	for _, byz := range [][]int{nil, {2}} {
		c, err := NewReplicated(ReplicatedConfig{
			ModelFactory: factory, ServerReplicas: 4, ByzantineReplicas: byz, Workers: honestWorkers(train, 7),
			GAR: gar.Average{}, OptimizerFactory: sgd, Batch: 8, Seed: 43,
		})
		if err != nil {
			t.Fatal(err)
		}
		results := float64(len(c.cl.engines) - 1)
		got := testing.AllocsPerRun(50, step(c))
		if got-results > base {
			t.Errorf("%d Byzantine replicas: %v allocs a step, want <= %v (a plain step) + %v StepResults", len(byz), got, base, results)
		}
		net = append(net, got-results)
	}
	if net[0] != net[1] {
		t.Errorf("net of StepResults, a step allocates %v with no Byzantine replica and %v with one", net[0], net[1])
	}
}
