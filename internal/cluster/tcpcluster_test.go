package cluster

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/transport"
)

// matrixDeployment builds the shared fixture for the distributed Byzantine
// matrix: a 7-worker localhost cluster (enough for bulyan at f=1) over a
// 3-class synthetic feature task.
func matrixDeployment(t *testing.T, rule gar.GAR, byz map[int]string, unresponsive map[int]bool, timeout time.Duration) (*TCPCluster, *data.Dataset, func() *nn.Network) {
	t.Helper()
	ds := data.SyntheticFeatures(300, 10, 3, 50)
	ds.MinMaxScale()
	train, test := ds.Split(0.8)
	factory := func() *nn.Network {
		return nn.NewMLP(10, []int{16}, 3, rand.New(rand.NewSource(51)))
	}
	cl, err := NewTCPCluster(TCPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: factory,
		Workers:      7,
		GAR:          rule,
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
		Batch:        32,
		Train:        train,
		Byzantine:    byz,
		Unresponsive: unresponsive,
		RoundTimeout: timeout,
		Seed:         13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, test, factory
}

// TestTCPClusterByzantineMatrix is the end-to-end distributed matrix:
// {krum, multi-krum, bulyan, median, average} × {non-finite, reversed,
// omniscient} over real sockets, one Byzantine worker among seven. The
// robust rules must keep training convergent; plain averaging must be
// poisoned by the blind attacks (the omniscient construction deliberately
// stays inside the acceptance envelope, so poisoning plain averaging is not
// part of its contract and only convergence of the robust rules is
// asserted).
func TestTCPClusterByzantineMatrix(t *testing.T) {
	newRule := func(name string) gar.GAR {
		rule, err := gar.New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rule
	}
	type cell struct {
		rule, attack string
		// wantPoisoned asserts training was destroyed (non-finite
		// parameters or near-chance accuracy); otherwise convergence is
		// asserted.
		wantPoisoned bool
	}
	var cells []cell
	for _, rule := range []string{"krum", "multi-krum", "bulyan", "median"} {
		for _, atk := range []string{"non-finite", "reversed", "omniscient"} {
			cells = append(cells, cell{rule: rule, attack: atk})
		}
	}
	cells = append(cells,
		cell{rule: "average", attack: "non-finite", wantPoisoned: true},
		cell{rule: "average", attack: "reversed", wantPoisoned: true},
	)

	for _, tc := range cells {
		t.Run(tc.rule+"/"+tc.attack, func(t *testing.T) {
			t.Parallel()
			steps := 100
			if tc.wantPoisoned {
				steps = 60 // enough rounds for the poisoned ascent to destroy the model
			}
			cl, test, factory := matrixDeployment(t, newRule(tc.rule), map[int]string{6: tc.attack}, nil, 0)
			if err := cl.Start(); err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i := 0; i < steps; i++ {
				if _, err := cl.Step(); err != nil {
					t.Fatal(err)
				}
			}
			params := cl.Params()
			if tc.wantPoisoned {
				// Poisoning manifests as non-finite parameters (NaN
				// payloads survive averaging) or as a saturated model
				// collapsed to constant predictions (~majority-class
				// accuracy, far below the ≥0.80 the robust rules reach).
				if params.IsFinite() {
					model := factory()
					model.SetParamsVector(params)
					if acc := model.Accuracy(test.X, test.Y); acc > 0.6 {
						t.Fatalf("averaging should be poisoned under %s, got accuracy %v", tc.attack, acc)
					}
				}
				return
			}
			if !params.IsFinite() {
				t.Fatalf("%s let non-finite parameters through under %s", tc.rule, tc.attack)
			}
			model := factory()
			model.SetParamsVector(params)
			if acc := model.Accuracy(test.X, test.Y); acc < 0.7 {
				t.Fatalf("%s under %s converged to accuracy %v", tc.rule, tc.attack, acc)
			}
		})
	}
}

// TestTCPClusterStragglerRoundTimeout is the matrix's round-timeout cell: an
// unresponsive worker (the paper's node vanilla TensorFlow would wait on
// forever) costs the deployment exactly one collection deadline — it is
// suspected afterwards — and training converges on the surviving quorum,
// Byzantine worker included.
func TestTCPClusterStragglerRoundTimeout(t *testing.T) {
	defer releaseCheck(t)("over a straggler round")
	cl, test, factory := matrixDeployment(t, gar.NewMultiKrum(1),
		map[int]string{6: "non-finite"}, map[int]bool{4: true}, 250*time.Millisecond)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	start := time.Now()
	sr, err := cl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Fatalf("first round returned in %v, before the deadline", elapsed)
	}
	if sr.Received != 6 {
		t.Fatalf("first round received %d gradients, want 6 (one straggler timed out)", sr.Received)
	}
	for i := 1; i < 80; i++ {
		sr, err = cl.Step()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Received != 6 {
			t.Fatalf("round %d received %d gradients, want 6", i, sr.Received)
		}
		if sr.Skipped {
			t.Fatalf("round %d skipped despite a 6-worker quorum", i)
		}
	}
	params := cl.Params()
	if !params.IsFinite() {
		t.Fatal("parameters went non-finite")
	}
	model := factory()
	model.SetParamsVector(params)
	if acc := model.Accuracy(test.X, test.Y); acc < 0.7 {
		t.Fatalf("straggler cell converged to accuracy %v", acc)
	}
}

// TestTCPClusterRecoupPolicies covers the timed-out-slot recoup policies:
// FillNaN substitutes a non-finite vector for the missing slot (so the GAR
// must contain it — selective averaging does), FillRandom substitutes a
// seed-derived random vector, and both keep the slot in the received count.
func TestTCPClusterRecoupPolicies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy transport.RecoupPolicy
		rule   gar.GAR
	}{
		{name: "fill-nan", policy: transport.FillNaN, rule: gar.SelectiveAverage{}},
		{name: "fill-random", policy: transport.FillRandom, rule: gar.NewMultiKrum(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := data.SyntheticFeatures(120, 6, 3, 9)
			ds.MinMaxScale()
			factory := func() *nn.Network {
				return nn.NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(10)))
			}
			cl, err := NewTCPCluster(TCPClusterConfig{
				Addr:         "127.0.0.1:0",
				ModelFactory: factory,
				Workers:      5,
				GAR:          tc.rule,
				Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
				Batch:        8,
				Train:        ds,
				Unresponsive: map[int]bool{2: true},
				RoundTimeout: 200 * time.Millisecond,
				Recoup:       tc.policy,
				Seed:         7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Start(); err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i := 0; i < 3; i++ {
				sr, err := cl.Step()
				if err != nil {
					t.Fatal(err)
				}
				if sr.Received != 5 {
					t.Fatalf("round %d received %d, want 5 (missing slot recouped)", i, sr.Received)
				}
			}
			if !cl.Params().IsFinite() {
				t.Fatalf("%s let the recouped slot poison the parameters", tc.rule.Name())
			}
		})
	}
}

// TestTCPClusterDeterministicRounds pins round-level reproducibility at the
// cluster layer: two socket deployments with the same seed produce
// bit-identical parameters after the same number of rounds, and a third with
// a different seed diverges (the seed actually threads through).
func TestTCPClusterDeterministicRounds(t *testing.T) {
	run := func(seed int64) []float64 {
		ds := data.SyntheticFeatures(120, 6, 3, 9)
		ds.MinMaxScale()
		factory := func() *nn.Network {
			return nn.NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(10)))
		}
		cl, err := NewTCPCluster(TCPClusterConfig{
			Addr:         "127.0.0.1:0",
			ModelFactory: factory,
			Workers:      5,
			GAR:          gar.NewMultiKrum(1),
			Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.2}},
			Batch:        8,
			Train:        ds,
			Byzantine:    map[int]string{4: "random"},
			Seed:         seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for i := 0; i < 15; i++ {
			if _, err := cl.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return cl.Params()
	}
	a, b, c := run(3), run(3), run(4)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("same-seed runs diverged at parameter %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical parameters; the seed is not threaded")
	}
}

// TestTCPClusterTrainerSurface pins the Step and Model details the training
// loop relies on: Step before Start fails, a round receives every worker,
// and Model stays synchronised with the aggregated parameters.
func TestTCPClusterTrainerSurface(t *testing.T) {
	ds := data.SyntheticFeatures(60, 4, 2, 5)
	factory := func() *nn.Network { return nn.NewMLP(4, nil, 2, rand.New(rand.NewSource(6))) }
	cl, err := NewTCPCluster(TCPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: factory,
		Workers:      3,
		GAR:          gar.Average{},
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:        4,
		Train:        ds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Step(); err == nil {
		t.Fatal("Step before Start succeeded")
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 2; i++ {
		sr, err := cl.Step()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Received != 3 || sr.Skipped || sr.Hijacked {
			t.Fatalf("unexpected step result %+v", sr)
		}
	}
	got := cl.Model().ParamsVector()
	want := cl.Params()
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("Model() out of sync with Params()")
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
	if _, err := cl.Step(); err == nil {
		t.Fatal("Step after Close succeeded")
	}
}
