package main

import (
	"fmt"
	"math/rand"
	"time"

	"aggregathor/internal/attack"
	"aggregathor/internal/cluster"
	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// The paper's evaluation cluster (§4): every workload shares these.
const (
	workers      = 19
	declaredF    = 4
	batch        = 4
	learningRate = 1e-3
	trainSamples = 2048
	roundTimeout = 2 * time.Second
	warmupRounds = 20
)

const (
	backendInproc = "inproc"
	backendTCP    = "tcp"
	backendUDP    = "udp"
)

// workload is one named configuration of a training deployment. The names
// are the contract later PRs quote; see README.md for why each exists.
type workload struct {
	Name      string
	Why       string
	Backend   string
	GAR       string
	Hidden    int // MLP hidden width: 128 → d=101,770, 32 → d=25,450, 2 → d=1,600
	Float32   bool
	DropRate  float64
	Byzantine int // workers 0..Byzantine-1 run the reversed attack
}

var workloads = []workload{
	{
		Name: "inproc-bulyan-100k", Backend: backendInproc, GAR: "bulyan", Hidden: 128,
		Why: "no sockets; bulyan runs both GAR kernel families, so gar/tensor/nn do the work and transport/cluster none",
	},
	{
		Name: "tcp-average-100k", Backend: backendTCP, GAR: "average", Hidden: 128,
		Why: "bandwidth-bound TCP rounds (15.5 MB each way); GAR is a few percent, so a GAR kernel gain must not move it",
	},
	{
		Name: "tcp-small-2k", Backend: backendTCP, GAR: "multi-krum", Hidden: 2,
		Why: "13 KB messages: per-round fixed cost (goroutine spawns, makes, syscalls) dominates, bytes do not",
	},
	{
		Name: "udp-clean-25k", Backend: backendUDP, GAR: "multi-krum", Hidden: 32,
		Why: "datagram fast path with nothing lost: split, sendmmsg, recvmmsg, decode, reassemble, pacing; bit-identical to in-process",
	},
	{
		Name: "udp-lossy-25k", Backend: backendUDP, GAR: "multi-krum", Hidden: 32,
		Float32: true, DropRate: 0.1, Byzantine: 4,
		Why: "the paper's lossyMPI configuration: float32 wire, 10% scheduled drops, fill-random recoup, 4 reversed-gradient workers",
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// lossless reports whether the workload must reproduce the in-process
// trajectory bit for bit (float64 wire, nothing dropped, nobody Byzantine).
func (w workload) lossless() bool { return !w.Float32 && w.DropRate == 0 && w.Byzantine == 0 }

func (w workload) codec() transport.Codec { return transport.Codec{Float32: w.Float32} }

func (w workload) byzantine() map[int]string {
	if w.Byzantine == 0 {
		return nil
	}
	m := map[int]string{}
	for id := 0; id < w.Byzantine; id++ {
		m[id] = "reversed"
	}
	return m
}

// modelFactory returns identically initialised replicas: every call reseeds.
func (w workload) modelFactory(seed int64) func() *nn.Network {
	return func() *nn.Network {
		return nn.NewMLP(784, []int{w.Hidden}, 10, rand.New(rand.NewSource(seed+104729)))
	}
}

// deployment is a started cluster behind the three calls the driver needs.
type deployment struct {
	step   func() (*ps.StepResult, error)
	params func() tensor.Vector
	close  func() error
	// constructed is when dataset and model were ready and the cluster's
	// constructor was about to run: cluster.start_ms counts from here.
	constructed time.Time
}

// deploy builds the dataset and model, constructs the workload's cluster and
// starts it: everything setup_s covers. With a recorder, what the cluster is
// handed — GAR, optimizer, in-process samplers — is wrapped in the tracing
// decorators; nil leaves everything undecorated.
func deploy(w workload, seed int64, rec *recorder) (*deployment, error) {
	train := data.SyntheticMNIST(trainSamples, seed)
	rule, err := gar.New(w.GAR, declaredF)
	if err != nil {
		return nil, err
	}
	var optimizer opt.Optimizer = &opt.RMSProp{Schedule: opt.Fixed{Rate: learningRate}}
	if rec != nil {
		rule, optimizer = traceGAR(rec, rule), &tracedOptimizer{Optimizer: optimizer, rec: rec}
	}
	factory := w.modelFactory(seed)
	constructed := time.Now()

	var c interface {
		Start() error
		Step() (*ps.StepResult, error)
		Params() tensor.Vector
		Close() error
	}
	switch w.Backend {
	case backendInproc:
		return deployInproc(w, seed, rec, train, rule, optimizer)
	case backendTCP:
		c, err = cluster.NewTCPCluster(cluster.TCPClusterConfig{
			Addr: "127.0.0.1:0", ModelFactory: factory, Workers: workers, GAR: rule,
			Optimizer: optimizer, Batch: batch, Train: train, Codec: w.codec(),
			RoundTimeout: roundTimeout, Byzantine: w.byzantine(), Seed: seed,
		})
	case backendUDP:
		c, err = cluster.NewUDPCluster(cluster.UDPClusterConfig{
			Addr: "127.0.0.1:0", ModelFactory: factory, Workers: workers, GAR: rule,
			Optimizer: optimizer, Batch: batch, Train: train, Codec: w.codec(),
			RoundTimeout: roundTimeout, DropRate: w.DropRate, Recoup: transport.FillRandom,
			Byzantine: w.byzantine(), Seed: seed,
		})
	default:
		return nil, fmt.Errorf("workload %s: unknown backend %q", w.Name, w.Backend)
	}
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	return &deployment{step: c.Step, params: c.Params, close: c.Close, constructed: constructed}, nil
}

// deployInproc assembles a ps.Cluster with the seed derivations the socket
// workers use (ps.SamplerSeed, ps.AttackSeed), so it doubles as the parity
// twin of any lossless socket workload.
func deployInproc(w workload, seed int64, rec *recorder, train *data.Dataset, rule gar.GAR, optimizer opt.Optimizer) (*deployment, error) {
	constructed := time.Now()
	cfgs := make([]ps.WorkerConfig, workers)
	for i := range cfgs {
		var sampler data.Sampler = data.NewUniformSampler(train, ps.SamplerSeed(seed, i))
		if rec != nil {
			sampler = &tracedSampler{inner: sampler, rec: rec}
		}
		cfgs[i] = ps.WorkerConfig{Sampler: sampler, Seed: seed + int64(i)}
		if i < w.Byzantine {
			atk, err := attack.New("reversed")
			if err != nil {
				return nil, err
			}
			cfgs[i].Attack = atk
		}
	}
	c, err := ps.New(ps.Config{
		ModelFactory: w.modelFactory(seed), Workers: cfgs, GAR: rule,
		Optimizer: optimizer, Batch: batch, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &deployment{step: c.Step, params: c.Params, close: func() error { return nil }, constructed: constructed}, nil
}

// parityTwin builds the undecorated in-process deployment a lossless
// workload must match bit for bit.
func parityTwin(w workload, seed int64) (*deployment, error) {
	w.Backend = backendInproc
	return deploy(w, seed, nil)
}
