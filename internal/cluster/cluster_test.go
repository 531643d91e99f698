package cluster

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec(`{"ps": ["127.0.0.1:7000"], "workers": ["127.0.0.1:7001", "127.0.0.1:7002"]}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tasks(JobWorkers)) != 2 {
		t.Fatalf("workers %v", s.Tasks(JobWorkers))
	}
	if got := s.JobNames(); got[0] != "ps" || got[1] != "workers" {
		t.Fatalf("job names %v", got)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{}`,
		`{"ps": []}`,
		`{"ps": [""]}`,
		`{"ps": ["a:1"], "workers": ["a:1"]}`, // duplicate address
	}
	for _, raw := range cases {
		if _, err := ParseSpec(raw); err == nil {
			t.Fatalf("spec %q accepted", raw)
		}
	}
}

func TestDeviceString(t *testing.T) {
	d := Device{Job: "workers", Task: 3, Kind: GPU}
	if got := d.String(); got != "/job:workers/task:3/device:gpu" {
		t.Fatalf("device path %q", got)
	}
}

func TestRoundRobinPolicy(t *testing.T) {
	devs := []Device{{Task: 0}, {Task: 1}, {Task: 2}}
	p := &RoundRobin{}
	got := []int{
		p.Assign("a", devs).Task,
		p.Assign("b", devs).Task,
		p.Assign("c", devs).Task,
		p.Assign("d", devs).Task,
	}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin order %v", got)
		}
	}
}

func TestPreferGPUPolicy(t *testing.T) {
	cpuOnly := []Device{{Task: 0, Kind: CPU}, {Task: 1, Kind: CPU}}
	mixed := []Device{{Task: 0, Kind: CPU}, {Task: 1, Kind: GPU}}
	p := PreferGPU{}
	if got := p.Assign("g", cpuOnly); got.Task != 0 {
		t.Fatalf("cpu fallback picked task %d", got.Task)
	}
	if got := p.Assign("g", mixed); got.Task != 1 || got.Kind != GPU {
		t.Fatalf("gpu preference picked %v", got)
	}
}

func TestAllocate(t *testing.T) {
	spec, err := ParseSpec(`{"ps": ["h0:7000"], "workers": ["h1:7000", "h2:7000"], "eval": ["h3:7000"]}`)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := Allocate(spec, &RoundRobin{}, 4, map[string][]bool{JobWorkers: {true, false}})
	if err != nil {
		t.Fatal(err)
	}
	if alloc["variables"].Job != JobPS || alloc["aggregation"].Job != JobPS {
		t.Fatal("server ops must land on ps")
	}
	if alloc["accuracy"].Job != JobEval {
		t.Fatal("accuracy must land on eval")
	}
	// 4 worker gradient ops spread over 2 tasks round-robin.
	w0 := alloc["worker_0/gradient"]
	w2 := alloc["worker_2/gradient"]
	if w0.Task != w2.Task {
		t.Fatal("round robin should reuse task 0 for workers 0 and 2")
	}
	if alloc["worker_0/gradient"].Kind != GPU {
		t.Fatal("worker task 0 was declared GPU")
	}
	if got := alloc["worker_1/gradient"].Task; got != 1 {
		t.Fatalf("worker 1 on task %d", got)
	}
}

func TestAllocateMissingJobs(t *testing.T) {
	spec := &Spec{Jobs: map[string][]string{"ps": {"h:1"}}}
	if _, err := Allocate(spec, &RoundRobin{}, 1, nil); err == nil {
		t.Fatal("missing workers job accepted")
	}
}

func TestAllocateEvalDefaultsToPS(t *testing.T) {
	spec, err := ParseSpec(`{"ps": ["h0:1"], "workers": ["h1:1"]}`)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := Allocate(spec, &RoundRobin{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if alloc["accuracy"].Job != JobPS {
		t.Fatal("eval must co-locate with ps when absent")
	}
}

func TestPolicyNames(t *testing.T) {
	if (&RoundRobin{}).Name() != "round-robin" || (PreferGPU{}).Name() != "prefer-gpu" {
		t.Fatal("policy names")
	}
	if !strings.Contains((Device{Job: "ps"}).String(), "cpu") {
		t.Fatal("default device kind must be cpu")
	}
}

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
		func(c *TCPClusterConfig) { c.ModelRecoup = ModelRecoupStale },
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
