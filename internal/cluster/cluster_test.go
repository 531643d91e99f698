package cluster

import (
	"math/rand"
	"testing"
	"time"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// tcpTrain drives a TCPCluster for a fixed number of rounds and returns the
// trained parameters.
func tcpTrain(cfg TCPClusterConfig, steps int) (tensor.Vector, error) {
	cl, err := NewTCPCluster(cfg)
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

// Full socket-distributed training over localhost: model broadcasts and
// gradients all travel real TCP connections, the GAR aggregates, and the
// model learns.
func TestTCPTrainEndToEnd(t *testing.T) {
	ds := data.SyntheticFeatures(300, 10, 3, 41)
	ds.MinMaxScale()
	train, test := ds.Split(0.8)
	factory := func() *nn.Network {
		return nn.NewMLP(10, []int{16}, 3, rand.New(rand.NewSource(42)))
	}
	params, err := tcpTrain(TCPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: factory,
		Workers:      5,
		GAR:          gar.NewMultiKrum(1),
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
		Batch:        32,
		Train:        train,
		RoundTimeout: 10 * time.Second,
	}, 120)
	if err != nil {
		t.Fatal(err)
	}
	model := factory()
	model.SetParamsVector(params)
	if acc := model.Accuracy(test.X, test.Y); acc < 0.6 {
		t.Fatalf("TCP-distributed training accuracy %v", acc)
	}
}

func TestTCPTrainFloat32Wire(t *testing.T) {
	ds := data.SyntheticFeatures(200, 8, 2, 43)
	ds.MinMaxScale()
	train, test := ds.Split(0.8)
	factory := func() *nn.Network {
		return nn.NewMLP(8, []int{12}, 2, rand.New(rand.NewSource(44)))
	}
	params, err := tcpTrain(TCPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: factory,
		Workers:      3,
		GAR:          gar.Average{},
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
		Batch:        16,
		Train:        train,
		Codec:        transport.Codec{Float32: true},
	}, 80)
	if err != nil {
		t.Fatal(err)
	}
	model := factory()
	model.SetParamsVector(params)
	if acc := model.Accuracy(test.X, test.Y); acc < 0.7 {
		t.Fatalf("float32-wire training accuracy %v", acc)
	}
}

func TestTCPTrainValidation(t *testing.T) {
	if _, err := tcpTrain(TCPClusterConfig{}, 1); err == nil {
		t.Fatal("empty config accepted")
	}
	ds := data.SyntheticFeatures(50, 4, 2, 45)
	cfg := TCPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: func() *nn.Network { return nn.NewMLP(4, nil, 2, rand.New(rand.NewSource(1))) },
		Workers:      0,
		GAR:          gar.Average{},
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:        8,
		Train:        ds,
	}
	if _, err := tcpTrain(cfg, 1); err == nil {
		t.Fatal("zero workers accepted")
	}
	// A stream has no datagram link: the datagram-only axes fail loudly
	// instead of being silently ignored.
	for i, mutate := range []func(*TCPClusterConfig){
		func(c *TCPClusterConfig) { c.DropRate = 0.1 },
		func(c *TCPClusterConfig) { c.ModelDropRate = 0.1 },
		func(c *TCPClusterConfig) { c.StaleModels = true },
		func(c *TCPClusterConfig) { c.MTU = 1400 },
		func(c *TCPClusterConfig) { c.WorkerBindHost = "127.0.0.1" },
	} {
		bad := cfg
		bad.Workers = 2
		mutate(&bad)
		if _, err := NewTCPCluster(bad); err == nil {
			t.Fatalf("datagram-only field %d accepted by NewTCPCluster", i)
		}
	}
}
