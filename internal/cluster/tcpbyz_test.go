package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"aggregathor/internal/attack"
	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/tensor"
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

// shortAt is honest except at its step, where it submits its gradient one
// coordinate short: a well-formed frame of the wrong dimension.
type shortAt int

func (s shortAt) Name() string { return fmt.Sprintf("test-short-at-step-%d", int(s)) }

func (s shortAt) Forge(ctx *attack.Context) tensor.Vector {
	if ctx.Step == int(s) {
		return ctx.Own[:ctx.Dim-1]
	}
	return ctx.Own
}

func init() {
	for _, s := range []shortAt{0, 3} {
		attack.Register(s.Name(), func() attack.Attack { return s })
	}
}

// TestTCPClusterWrongDimensionFrameCostsOnlyItsSender is the regression test
// for a worker submitting d−1 coordinates: the frame used to be admitted and
// the GAR's uniform-dimension check then failed Step — one Byzantine worker
// stopped training. It is refused at its header instead, which costs the
// sender its connection exactly as vanishing would: the run is, bit for bit
// and round for round, the one where that worker hangs up at the same step.
// Step 0 is no exception: the connection's hello named its slot, so its
// first gradient being refused costs that slot alone, not the run.
func TestTCPClusterWrongDimensionFrameCostsOnlyItsSender(t *testing.T) {
	for _, badStep := range []int{0, 3} {
		t.Run(fmt.Sprintf("step-%d", badStep), func(t *testing.T) {
			defer releaseCheck(t)("over a wrong-dimension frame")
			wrongDimensionFrameCostsOnlyItsSender(t, badStep)
		})
	}
}

func wrongDimensionFrameCostsOnlyItsSender(t *testing.T, badStep int) {
	const steps = 8
	ds := data.SyntheticFeatures(120, 6, 3, 9)
	ds.MinMaxScale()
	train, _ := ds.Split(0.8)
	run := func(byz map[int]string, abrupt map[int]int) (tensor.Vector, []int) {
		cl, err := NewTCPCluster(TCPClusterConfig{
			Addr:         "127.0.0.1:0",
			ModelFactory: func() *nn.Network { return nn.NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(10))) },
			Workers:      5,
			GAR:          gar.Median{},
			Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
			Batch:        8,
			Train:        train,
			Byzantine:    byz,
			RoundTimeout: 30 * time.Second,
			Seed:         21,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.testAbruptClose = abrupt
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		var received []int
		for i := 0; i < steps; i++ {
			start := time.Now()
			res, err := cl.Step()
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("step %d took %v: the refused frame left the round waiting for RoundTimeout", i, elapsed)
			}
			received = append(received, res.Received)
		}
		return cl.Params(), received
	}
	params, received := run(map[int]string{2: shortAt(badStep).Name()}, nil)
	wantParams, wantReceived := run(nil, map[int]int{2: badStep})
	for i, n := range received {
		if want := map[bool]int{true: 5, false: 4}[i < badStep]; n != want || wantReceived[i] != want {
			t.Fatalf("step %d aggregated %d gradients (%d in the hang-up run), want %d: the sender's slot alone is dropped, from step %d on",
				i, n, wantReceived[i], want, badStep)
		}
	}
	for i := range params {
		if math.Float64bits(params[i]) != math.Float64bits(wantParams[i]) {
			t.Fatalf("parameter %d is %v, %v in the hang-up run: the other workers' submissions moved", i, params[i], wantParams[i])
		}
	}
}
