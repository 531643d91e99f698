package ps

import (
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/attack"
	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// testFixture builds a small learnable task and a model factory for it.
func testFixture(seed int64) (train, test *data.Dataset, factory func() *nn.Network) {
	ds := data.SyntheticFeatures(400, 12, 4, seed)
	ds.MinMaxScale()
	train, test = ds.Split(0.8)
	factory = func() *nn.Network {
		return nn.NewMLP(12, []int{24}, 4, rand.New(rand.NewSource(seed)))
	}
	return train, test, factory
}

func honestWorkers(train *data.Dataset, n int) []WorkerConfig {
	ws := make([]WorkerConfig, n)
	for i := range ws {
		ws[i] = WorkerConfig{
			Sampler: data.NewUniformSampler(train, int64(100+i)),
			Seed:    int64(i),
		}
	}
	return ws
}

func TestNewValidation(t *testing.T) {
	train, _, factory := testFixture(1)
	base := Config{
		ModelFactory: factory,
		Workers:      honestWorkers(train, 7),
		GAR:          gar.Average{},
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:        16,
	}
	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.ModelFactory = nil
	if _, err := New(bad); err == nil {
		t.Fatal("missing factory accepted")
	}
	bad = base
	bad.Workers = nil
	if _, err := New(bad); err == nil {
		t.Fatal("no workers accepted")
	}
	bad = base
	bad.GAR = nil
	if _, err := New(bad); err == nil {
		t.Fatal("missing GAR accepted")
	}
	bad = base
	bad.Optimizer = nil
	if _, err := New(bad); err == nil {
		t.Fatal("missing optimizer accepted")
	}
	bad = base
	bad.Batch = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero batch accepted")
	}
	bad = base
	bad.GAR = gar.NewBulyan(4) // needs 19 workers
	if _, err := New(bad); err == nil {
		t.Fatal("undersized cluster for bulyan accepted")
	}
	for name, link := range map[string]Link{
		"a lossy link with no MTU":            {GradLoss: 0.1},
		"more linked slots than workers":      {MTU: 512, Slots: 8},
		"a negative number of linked slots":   {MTU: 512, Slots: -1},
		"in-process model loss":               {MTU: 512, ModelLoss: 0.1},
		"in-process stale recoup at rate 0":   {MTU: 512, StaleModels: true},
		"a gradient drop rate of 1 and above": {MTU: 512, GradLoss: 1},
	} {
		bad = base
		bad.Link = link
		if _, err := New(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	ok := base
	ok.Link = Link{MTU: 512, GradLoss: 0.1, Slots: 7}
	if _, err := New(ok); err != nil {
		t.Fatalf("every worker on a lossy link rejected: %v", err)
	}
}

func TestHonestTrainingConverges(t *testing.T) {
	train, test, factory := testFixture(2)
	c, err := New(Config{
		ModelFactory: factory,
		Workers:      honestWorkers(train, 5),
		GAR:          gar.Average{},
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
		Batch:        32,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if first.Received != 5 || first.Skipped {
		t.Fatalf("first step: %+v", first)
	}
	for i := 0; i < 150; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if acc := c.Model().Accuracy(test.X, test.Y); acc < 0.6 {
		t.Fatalf("accuracy %v after training, want > 0.6", acc)
	}
	if c.step != 151 {
		t.Fatalf("model-update index %d after 151 rounds", c.step)
	}
}

func TestMultiKrumTrainingUnderAttack(t *testing.T) {
	train, test, factory := testFixture(3)
	workers := honestWorkers(train, 9)
	// f=2 Byzantine workers with large random gradients.
	workers[3].Attack = attack.Random{}
	workers[7].Attack = attack.Random{}
	c, err := New(Config{
		ModelFactory: factory,
		Workers:      workers,
		GAR:          gar.NewMultiKrum(2),
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
		Batch:        32,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if acc := c.Model().Accuracy(test.X, test.Y); acc < 0.6 {
		t.Fatalf("multi-krum accuracy %v under attack, want > 0.6", acc)
	}
}

func TestAveragingDivergesUnderAttack(t *testing.T) {
	train, test, factory := testFixture(4)
	workers := honestWorkers(train, 9)
	// NegativeSum cancels the entire honest contribution under plain
	// averaging: the applied gradient is exactly zero every round.
	workers[0].Attack = attack.NegativeSum{}
	c, err := New(Config{
		ModelFactory: factory,
		Workers:      workers,
		GAR:          gar.Average{},
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
		Batch:        32,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// One poisoned worker destroys plain averaging: accuracy stays near
	// chance (0.25 for 4 classes).
	if acc := c.Model().Accuracy(test.X, test.Y); acc > 0.5 {
		t.Fatalf("averaging should fail under attack, got accuracy %v", acc)
	}
}

// posInf submits +Inf in every coordinate: the non-finite payload
// attack.NonFinite's NaN does not cover.
type posInf struct{}

func (posInf) Name() string { return "+inf" }

func (posInf) Forge(ctx *attack.Context) tensor.Vector {
	v := tensor.NewVector(ctx.Dim)
	for i := range v {
		v[i] = math.Inf(1)
	}
	return v
}

func TestNaNAttackSurvivedByMultiKrum(t *testing.T) {
	train, test, factory := testFixture(5)
	workers := honestWorkers(train, 9)
	workers[2].Attack = attack.NonFinite{}
	workers[5].Attack = posInf{}
	c, err := New(Config{
		ModelFactory: factory,
		Workers:      workers,
		GAR:          gar.NewMultiKrum(2),
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
		Batch:        32,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Params().IsFinite() {
		t.Fatal("parameters went non-finite under NaN attack")
	}
	if acc := c.Model().Accuracy(test.X, test.Y); acc < 0.6 {
		t.Fatalf("accuracy %v under NaN attack", acc)
	}
}

func TestVanillaHijackDestroysTraining(t *testing.T) {
	train, _, factory := testFixture(6)
	workers := honestWorkers(train, 5)
	workers[1].HijackParams = true
	c, err := New(Config{
		ModelFactory: factory,
		Workers:      workers,
		GAR:          gar.NewMultiKrum(1), // even a robust GAR cannot save Vanilla
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
		Batch:        16,
		Mode:         Vanilla,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hijacked {
		t.Fatal("vanilla server must accept the hijack")
	}
}

func TestPatchedServerRefusesHijack(t *testing.T) {
	train, test, factory := testFixture(7)
	workers := honestWorkers(train, 5)
	workers[1].HijackParams = true
	c, err := New(Config{
		ModelFactory: factory,
		Workers:      workers,
		GAR:          gar.NewMultiKrum(1),
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
		Batch:        16,
		Mode:         Patched,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		res, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.Hijacked {
			t.Fatal("patched server accepted a hijack")
		}
	}
	if acc := c.Model().Accuracy(test.X, test.Y); acc < 0.6 {
		t.Fatalf("accuracy %v with refused hijacks", acc)
	}
}

func TestRemoteAssignModes(t *testing.T) {
	train, _, factory := testFixture(8)
	build := func(mode SecurityMode) *Cluster {
		c, err := New(Config{
			ModelFactory: factory,
			Workers:      honestWorkers(train, 3),
			GAR:          gar.Average{},
			Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
			Batch:        8,
			Mode:         mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	patched := build(Patched)
	if err := patched.RemoteAssign(tensor.NewVector(patched.Params().Dim())); err == nil {
		t.Fatal("patched server accepted remote assign")
	}
	vanilla := build(Vanilla)
	zero := tensor.NewVector(vanilla.Params().Dim())
	if err := vanilla.RemoteAssign(zero); err != nil {
		t.Fatal(err)
	}
	if vanilla.Params().SquaredNorm() != 0 {
		t.Fatal("remote assign did not take effect")
	}
	if err := vanilla.RemoteAssign(tensor.NewVector(1)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestSilentWorkersSkipRoundsWhenQuorumLost(t *testing.T) {
	train, _, factory := testFixture(9)
	workers := honestWorkers(train, 7)
	// Multi-Krum f=2 needs n >= 7; silence 3 workers so only 4 arrive.
	workers[1].Silent = true
	workers[3].Silent = true
	workers[5].Silent = true
	c, err := New(Config{
		ModelFactory: factory,
		Workers:      workers,
		GAR:          gar.NewMultiKrum(2),
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Params()
	res, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Skipped {
		t.Fatalf("round with 4 of 7 gradients must skip for multi-krum(f=2): %+v", res)
	}
	after := c.Params()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("skipped round must not move parameters")
		}
	}
}

func TestSilentWorkersToleratedWhenQuorumHolds(t *testing.T) {
	train, _, factory := testFixture(10)
	workers := honestWorkers(train, 9)
	workers[8].Silent = true // 8 arrive, multi-krum f=2 needs 7
	c, err := New(Config{
		ModelFactory: factory,
		Workers:      workers,
		GAR:          gar.NewMultiKrum(2),
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped || res.Received != 8 {
		t.Fatalf("round should proceed with 8 gradients: %+v", res)
	}
}

// TestLossyPipesWithRobustGAR (named for the per-worker pipes the datagram
// link replaced): f=2 of the workers on the lossy link, random-fill recoup.
func TestLossyPipesWithRobustGAR(t *testing.T) {
	train, test, factory := testFixture(11)
	c, err := New(Config{
		ModelFactory: factory,
		Workers:      honestWorkers(train, 9),
		GAR:          gar.NewMultiKrum(2),
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
		Batch:        32,
		Seed:         50,
		Link:         Link{MTU: 512, GradLoss: 0.10, Slots: 2},
		Recoup:       transport.FillRandom,
	})
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for i := 0; i < 250; i++ {
		eng := c.engines[0]
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
		for id := range eng.slots {
			if p := eng.slots[id].plan; id >= 2 && (p.Uplink != nil || p.Lost != 0) {
				t.Fatalf("step %d: worker %d is off the link and plans uplink %v, %d lost", i, id, p.Uplink, p.Lost)
			} else if id < 2 {
				lost += p.Lost
			}
		}
	}
	if lost == 0 {
		t.Fatal("dead fixture: the lossy link never dropped a coordinate")
	}
	if acc := c.Model().Accuracy(test.X, test.Y); acc < 0.6 {
		t.Fatalf("accuracy %v over lossy links", acc)
	}
}

func TestCorruptedDataWorkerFig7(t *testing.T) {
	train, test, factory := testFixture(12)
	workers := honestWorkers(train, 7)
	workers[2].Sampler = &data.CorruptedSampler{Inner: data.NewUniformSampler(train, 200), Rng: rand.New(rand.NewSource(13))}
	c, err := New(Config{
		ModelFactory: factory,
		Workers:      workers,
		GAR:          gar.NewMultiKrum(1),
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
		Batch:        32,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if acc := c.Model().Accuracy(test.X, test.Y); acc < 0.6 {
		t.Fatalf("accuracy %v with corrupted-data worker", acc)
	}
}

func TestStepDeterminism(t *testing.T) {
	run := func() tensor.Vector {
		train, _, factory := testFixture(14)
		c, err := New(Config{
			ModelFactory: factory,
			Workers:      honestWorkers(train, 5),
			GAR:          gar.NewMultiKrum(1),
			Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
			Batch:        16,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return c.Params()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training is nondeterministic at param %d", i)
		}
	}
}

func TestL2RegularizationShrinksWeights(t *testing.T) {
	train, _, factory := testFixture(15)
	run := func(l2 float64) float64 {
		c, err := New(Config{
			ModelFactory: factory,
			Workers:      honestWorkers(train, 3),
			GAR:          gar.Average{},
			Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
			Batch:        16,
			L2:           l2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if _, err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return c.Params().SquaredNorm()
	}
	if reg, unreg := run(0.01), run(0); reg >= unreg {
		t.Fatalf("L2 must shrink weights: %v vs %v", reg, unreg)
	}
}

func TestLossyDropGradientSkipsWhenQuorumLost(t *testing.T) {
	// All links drop whole gradients at a savage rate: many rounds must be
	// skipped (no quorum) without deadlock or error, and the parameters
	// must hold still on skipped rounds — the bounded-wait behaviour.
	// Whole-gradient survival under drop-gradient is (1-p)^packets; the
	// ~400-parameter model splits into ~14 packets at MTU 256, so p=0.02
	// keeps per-link survival ≈75% — most rounds gather a quorum of 5,
	// some do not.
	train, _, factory := testFixture(60)
	c, err := New(Config{
		ModelFactory: factory,
		Workers:      honestWorkers(train, 7),
		GAR:          gar.NewMultiKrum(1),
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:        8,
		Link:         Link{MTU: 256, GradLoss: 0.02},
		Recoup:       transport.DropGradient,
	})
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for i := 0; i < 30; i++ {
		before := c.Params()
		res, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.Skipped {
			skipped++
			after := c.Params()
			for j := range before {
				if before[j] != after[j] {
					t.Fatal("skipped round moved parameters")
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("25% packet loss with drop-gradient should skip rounds")
	}
	if skipped == 30 {
		t.Fatal("some rounds should still gather a quorum")
	}
}
