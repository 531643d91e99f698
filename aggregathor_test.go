package aggregathor

import (
	"math"
	"testing"

	"aggregathor/internal/gar"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
)

func TestPublicAggregate(t *testing.T) {
	grads := [][]float64{
		{1, 1}, {1.1, 0.9}, {0.9, 1.1}, {1.05, 1}, {0.95, 1},
		{1, 1.05}, {1e9, -1e9},
	}
	out, err := Aggregate("multi-krum", 1, grads)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-1) > 0.2 || math.Abs(out[1]-1) > 0.2 {
		t.Fatalf("aggregate %v dragged by outlier", out)
	}
	if _, err := Aggregate("no-such", 0, grads); err == nil {
		t.Fatal("unknown GAR accepted")
	}
	if _, err := Aggregate("bulyan", 4, grads); err == nil {
		t.Fatal("undersized bulyan accepted")
	}
}

func TestPublicAggregateDoesNotMutate(t *testing.T) {
	grads := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	if _, err := Aggregate("median", 0, grads); err != nil {
		t.Fatal(err)
	}
	if grads[0][0] != 1 || grads[2][1] != 6 {
		t.Fatal("inputs mutated")
	}
}

func TestMultiKrumSelectPublic(t *testing.T) {
	grads := [][]float64{
		{1}, {1.1}, {0.9}, {1.05}, {0.95}, {1.02}, {50},
	}
	sel, err := MultiKrumSelect(1, 2, grads)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("selected %v", sel)
	}
	for _, idx := range sel {
		if idx == 6 {
			t.Fatal("outlier selected")
		}
	}
}

// A negative f or m is the caller's mistake and comes back as an error: the
// rule validates its own fields, not only the registry that usually builds it.
func TestMultiKrumSelectRejectsNegativeParameters(t *testing.T) {
	few := [][]float64{{1}, {2}, {3}}
	many := [][]float64{{1}, {1.1}, {0.9}, {1.05}, {0.95}, {1.02}, {50}}
	for _, tc := range []struct {
		f, m  int
		grads [][]float64
	}{{-3, 0, few}, {-1, 2, many}, {1, -1, many}} {
		if sel, err := MultiKrumSelect(tc.f, tc.m, tc.grads); err == nil {
			t.Errorf("MultiKrumSelect(f=%d, m=%d) selected %v, want an error", tc.f, tc.m, sel)
		}
	}
}

func TestRegistriesExposed(t *testing.T) {
	if len(Aggregators()) < 7 {
		t.Fatalf("aggregators: %v", Aggregators())
	}
	if len(Attacks()) < 7 {
		t.Fatalf("attacks: %v", Attacks())
	}
	if len(Optimizers()) < 6 {
		t.Fatalf("optimizers: %v", Optimizers())
	}
	if len(Experiments()) < 4 {
		t.Fatalf("experiments: %d", len(Experiments()))
	}
}

func TestPublicRunSmoke(t *testing.T) {
	res, err := Run(Config{
		Workers: 7, F: 1, Aggregator: "multi-krum",
		Optimizer: "momentum", LR: 0.1, Batch: 16,
		Steps: 30, EvalEvery: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accuracy.Points) == 0 {
		t.Fatal("no evaluation points")
	}
}

// socketCluster is what the facade's two socket deployments, TCPCluster and
// UDPCluster, share to be driven round by round.
type socketCluster interface {
	Start() error
	Step() (*ps.StepResult, error)
	Params() tensor.Vector
	Close() error
}

// socketTrain builds a socket cluster through the facade and drives it for a
// fixed number of rounds.
func socketTrain(build func() (socketCluster, error), steps int) (tensor.Vector, error) {
	cl, err := build()
	if err != nil {
		return nil, err
	}
	if err := cl.Start(); err != nil {
		return nil, err
	}
	defer cl.Close()
	for step := 0; step < steps; step++ {
		if _, err := cl.Step(); err != nil {
			return nil, err
		}
	}
	return cl.Params(), nil
}

// TestPublicTCPTrain trains a socket-distributed session through the public
// API on both socket backends. At DropRate 0 a UDPCluster must end on the
// same parameters as a TCPCluster of the same config, bit for bit.
func TestPublicTCPTrain(t *testing.T) {
	var exp Experiment
	found := false
	for _, e := range Experiments() {
		if e.Name == "features-mlp" {
			exp, found = e, true
			break
		}
	}
	if !found {
		t.Fatal("features-mlp preset missing")
	}
	train, test, factory := exp.Make(9)
	// config is built afresh per cluster: the optimizer keeps state.
	config := func() UDPClusterConfig {
		rule, err := gar.New("multi-krum", 1)
		if err != nil {
			t.Fatal(err)
		}
		optimizer, err := opt.New("momentum", opt.Fixed{Rate: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		return UDPClusterConfig{
			Addr:         "127.0.0.1:0",
			ModelFactory: factory,
			Workers:      5,
			GAR:          rule,
			Optimizer:    optimizer,
			Batch:        32,
			Train:        train,
		}
	}
	tcp, err := socketTrain(func() (socketCluster, error) { return NewTCPCluster(config()) }, 60)
	if err != nil {
		t.Fatal(err)
	}
	model := factory()
	model.SetParamsVector(tcp)
	if acc := model.Accuracy(test.X, test.Y); acc < 0.3 {
		t.Fatalf("facade TCP training accuracy %v", acc)
	}
	udp, err := socketTrain(func() (socketCluster, error) { return NewUDPCluster(config()) }, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(udp) != len(tcp) {
		t.Fatalf("udp run has %d parameters, tcp %d", len(udp), len(tcp))
	}
	for i := range tcp {
		if math.Float64bits(udp[i]) != math.Float64bits(tcp[i]) {
			t.Fatalf("parameter %d: udp %v, tcp %v", i, udp[i], tcp[i])
		}
	}
}
