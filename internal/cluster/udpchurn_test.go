package cluster

import (
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// TestUDPClusterChurnByzantineMatrix layers the churn schedule onto the
// paper's headline lossy configuration: {multi-krum, median} ×
// {non-finite, reversed} over real UDP sockets at 10% seeded packet loss
// with fill-random recoup, one Byzantine worker among seven, workers
// crashing and rejoining on the seeded schedule. Three assertions per cell:
// every round's received count equals the schedule's participant count
// exactly (fill-random recoups every participating slot; crashed/down slots
// are dropped by design), the cumulative crash/rejoin counters equal the
// independent schedule replay, and training still converges.
func TestUDPClusterChurnByzantineMatrix(t *testing.T) {
	churn := ps.ChurnConfig{Rate: 0.03, DownSteps: 2, MaxRejoins: 5}
	const seed, steps, workers = 13, 120, 7
	wantCrashes, wantRejoins, _ := churnExpectation(churn, seed, steps, workers, 0)
	if wantCrashes == 0 || wantRejoins == 0 {
		t.Fatalf("dead fixture: schedule has %d crashes / %d rejoins", wantCrashes, wantRejoins)
	}
	participants := make([]int, steps)
	for s := 0; s < steps; s++ {
		for w := 0; w < workers; w++ {
			if churn.Phase(seed, s, w).Participates() {
				participants[s]++
			}
		}
	}
	newRule := func(name string) gar.GAR {
		rule, err := gar.New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rule
	}
	for _, rule := range []string{"multi-krum", "median"} {
		for _, atk := range []string{"non-finite", "reversed"} {
			rule, atk := rule, atk
			t.Run(rule+"/"+atk, func(t *testing.T) {
				t.Parallel()
				ds := data.SyntheticFeatures(300, 10, 3, 50)
				ds.MinMaxScale()
				train, test := ds.Split(0.8)
				factory := func() *nn.Network {
					return nn.NewMLP(10, []int{16}, 3, rand.New(rand.NewSource(51)))
				}
				cl, err := NewUDPCluster(UDPClusterConfig{
					Addr:         "127.0.0.1:0",
					ModelFactory: factory,
					Workers:      workers,
					GAR:          newRule(rule),
					Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.2}},
					Batch:        32,
					Train:        train,
					Byzantine:    map[int]string{6: atk},
					DropRate:     0.10,
					Recoup:       transport.FillRandom,
					MTU:          256, // several packets per gradient: loss really bites
					Churn:        churn,
					Seed:         seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Start(); err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				var crashes, rejoins, attempts int
				for i := 0; i < steps; i++ {
					sr, err := cl.Step()
					if err != nil {
						t.Fatal(err)
					}
					if sr.Received != participants[i] {
						t.Fatalf("round %d received %d gradients, want %d scheduled participants", i, sr.Received, participants[i])
					}
					crashes += sr.Crashes
					rejoins += sr.Rejoins
					attempts += sr.ReconnectAttempts
				}
				if crashes != wantCrashes || rejoins != wantRejoins || attempts != wantRejoins {
					t.Fatalf("counters diverge from schedule replay: crashes %d (want %d), rejoins %d (want %d), attempts %d (want %d)",
						crashes, wantCrashes, rejoins, wantRejoins, attempts, wantRejoins)
				}
				params := cl.Params()
				if !params.IsFinite() {
					t.Fatalf("%s let non-finite parameters through under %s at 10%% loss with churn", rule, atk)
				}
				model := factory()
				model.SetParamsVector(params)
				if acc := model.Accuracy(test.X, test.Y); acc < 0.7 {
					t.Fatalf("%s under %s at 10%% loss with churn converged to accuracy %v", rule, atk, acc)
				}
			})
		}
	}
}

// TestUDPClusterChurnMatchesTCP pins cross-backend determinism under churn:
// the same seed and schedule over a loss-free UDP deployment and a TCP
// deployment must produce bit-identical parameter trajectories — the churn
// twin of TestUDPClusterLosslessMatchesTCP. Both endpoints of both backends
// evaluate the same ps.ChurnSeed draws, so which rounds each worker misses
// is backend-independent.
func TestUDPClusterChurnMatchesTCP(t *testing.T) {
	churn := ps.ChurnConfig{Rate: 0.05, DownSteps: 2, MaxRejoins: 3}
	const seed, steps = 13, 40
	ds := data.SyntheticFeatures(120, 6, 3, 9)
	ds.MinMaxScale()
	factory := func() *nn.Network {
		return nn.NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(10)))
	}
	type roundCounters struct {
		crashes, rejoins int
		belowBound       bool
	}
	type backend interface {
		Start() error
		Step() (*ps.StepResult, error)
		Params() tensor.Vector
		Close() error
	}
	run := func(mk func() (backend, error)) ([]float64, []roundCounters) {
		cl, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		counters := make([]roundCounters, steps)
		for i := 0; i < steps; i++ {
			sr, err := cl.Step()
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			counters[i] = roundCounters{crashes: sr.Crashes, rejoins: sr.Rejoins, belowBound: sr.BelowBound}
		}
		return cl.Params(), counters
	}
	u, uc := run(func() (backend, error) {
		cl, err := NewUDPCluster(UDPClusterConfig{
			Addr: "127.0.0.1:0", ModelFactory: factory, Workers: 5,
			GAR: gar.NewMultiKrum(1), Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.2}},
			Batch: 8, Train: ds, Byzantine: map[int]string{4: "reversed"},
			Churn: churn, Seed: seed,
		})
		return cl, err
	})
	tc, tcc := run(func() (backend, error) {
		cl, err := NewTCPCluster(TCPClusterConfig{
			Addr: "127.0.0.1:0", ModelFactory: factory, Workers: 5,
			GAR: gar.NewMultiKrum(1), Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.2}},
			Batch: 8, Train: ds, Byzantine: map[int]string{4: "reversed"},
			Churn: churn, Seed: seed,
		})
		return cl, err
	})
	for i := range uc {
		if uc[i] != tcc[i] {
			t.Fatalf("step %d counters diverge across backends: udp %+v vs tcp %+v", i, uc[i], tcc[i])
		}
	}
	for i := range u {
		if math.Float64bits(u[i]) != math.Float64bits(tc[i]) {
			t.Fatalf("udp and tcp churn trajectories diverged at parameter %d: %v vs %v", i, u[i], tc[i])
		}
	}
}
