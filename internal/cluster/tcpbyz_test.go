package cluster

import (
	"math/rand"
	"testing"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
)

// Byzantine workers over real sockets: the forged gradients (including
// non-finite payloads) travel the actual wire protocol, and the robust GAR
// at the server still trains the model.
func TestTCPTrainSurvivesByzantineWorkers(t *testing.T) {
	ds := data.SyntheticFeatures(300, 10, 3, 50)
	ds.MinMaxScale()
	train, test := ds.Split(0.8)
	factory := func() *nn.Network {
		return nn.NewMLP(10, []int{16}, 3, rand.New(rand.NewSource(51)))
	}
	params, err := tcpTrain(TCPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: factory,
		Workers:      9,
		GAR:          gar.NewMultiKrum(2),
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
		Batch:        32,
		Train:        train,
		Byzantine:    map[int]string{2: "non-finite", 6: "random"},
	}, 120)
	if err != nil {
		t.Fatal(err)
	}
	model := factory()
	model.SetParamsVector(params)
	if !params.IsFinite() {
		t.Fatal("parameters non-finite after NaN attack over sockets")
	}
	if acc := model.Accuracy(test.X, test.Y); acc < 0.6 {
		t.Fatalf("accuracy %v under socket-level attack", acc)
	}
}

// The control: the same Byzantine workers against plain averaging destroy
// training (the aggregated gradient goes non-finite immediately).
func TestTCPTrainAveragingFallsToByzantine(t *testing.T) {
	ds := data.SyntheticFeatures(200, 8, 2, 52)
	ds.MinMaxScale()
	train, _ := ds.Split(0.8)
	factory := func() *nn.Network {
		return nn.NewMLP(8, []int{12}, 2, rand.New(rand.NewSource(53)))
	}
	params, err := tcpTrain(TCPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: factory,
		Workers:      5,
		GAR:          gar.Average{},
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
		Batch:        16,
		Train:        train,
		Byzantine:    map[int]string{1: "non-finite"},
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if params.IsFinite() {
		t.Fatal("averaging should have been poisoned by the NaN worker")
	}
}

func TestTCPTrainUnknownAttackFailsLoudly(t *testing.T) {
	ds := data.SyntheticFeatures(50, 4, 2, 54)
	factory := func() *nn.Network {
		return nn.NewMLP(4, nil, 2, rand.New(rand.NewSource(55)))
	}
	// Attack names are validated at cluster construction, before any
	// socket is opened — the run must error, not hang (bounded waiting).
	_, err := tcpTrain(TCPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: factory,
		Workers:      2,
		GAR:          gar.Average{},
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:        8,
		Train:        ds,
		Byzantine:    map[int]string{0: "no-such-attack"},
	}, 3)
	if err == nil {
		t.Fatal("unknown attack should fail the run")
	}
}
