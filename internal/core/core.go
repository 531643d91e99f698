// Package core is the AggregaThor framework facade: it wires the substrates
// (data, nn, gar, attack, draco, ps, transport, simnet, metrics) into one
// experiment runner mirroring the original runner.py command surface —
// experiment (model+dataset), aggregator, optimizer, learning rate, worker
// count, declared f, attacks, lossy links — and produces the accuracy /
// throughput / latency series that regenerate the paper's figures.
package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"time"

	"aggregathor/internal/attack"
	"aggregathor/internal/cluster"
	"aggregathor/internal/data"
	"aggregathor/internal/draco"
	"aggregathor/internal/gar"
	"aggregathor/internal/metrics"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/simnet"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// Experiment is a model+dataset preset (the --experiment flag).
type Experiment struct {
	// Name is the preset name.
	Name string
	// Make builds the train set, test set and a model factory from a
	// seed.
	Make func(seed int64) (train, test *data.Dataset, factory func() *nn.Network)
	// CostDim is the gradient dimension fed to the time model (the
	// paper-scale model this preset stands in for).
	CostDim int
	// FlopsPerSample is the per-sample compute cost for the time model.
	FlopsPerSample float64
}

// Experiments returns the built-in presets, sorted by name:
//
//   - "features-mlp": flat synthetic features + small MLP (fast; stands in
//     for the CIFAR CNN at Table-1 cost scale).
//   - "mnist": synthetic 28×28 images + MLP (the runner.py quickstart).
//   - "cnnet": synthetic 12×12 images + small CNN.
//   - "cifar-cnn": synthetic 32×32×3 + the full Table-1 CNN (slow; real
//     1.75M-parameter training).
func Experiments() []Experiment {
	exps := []Experiment{
		{
			Name: "features-mlp",
			Make: func(seed int64) (*data.Dataset, *data.Dataset, func() *nn.Network) {
				ds := data.SyntheticFeatures(1200, 24, 10, seed)
				ds.MinMaxScale()
				train, test := ds.Split(5.0 / 6.0)
				return train, test, func() *nn.Network {
					return nn.NewMLP(24, []int{48}, 10, rand.New(rand.NewSource(seed)))
				}
			},
			CostDim:        1_756_426, // Table-1 CNN
			FlopsPerSample: nn.CIFARCNNFlopsPerSample,
		},
		{
			Name: "mnist",
			Make: func(seed int64) (*data.Dataset, *data.Dataset, func() *nn.Network) {
				ds := data.SyntheticMNIST(1200, seed)
				ds.MinMaxScale()
				train, test := ds.Split(5.0 / 6.0)
				return train, test, func() *nn.Network {
					return nn.NewMLP(28*28, []int{64}, 10, rand.New(rand.NewSource(seed)))
				}
			},
			CostDim:        28*28*64 + 64 + 64*10 + 10,
			FlopsPerSample: 2 * 3 * (28*28*64 + 64*10),
		},
		{
			Name: "cnnet",
			Make: func(seed int64) (*data.Dataset, *data.Dataset, func() *nn.Network) {
				ds := data.Generate(data.Config{
					Samples: 900,
					Classes: 10,
					Shape:   nn.Shape{H: 12, W: 12, C: 1},
					Noise:   0.25,
					Seed:    seed,
				})
				ds.MinMaxScale()
				train, test := ds.Split(5.0 / 6.0)
				return train, test, func() *nn.Network {
					return nn.NewSmallCNN(nn.Shape{H: 12, W: 12, C: 1}, 10, rand.New(rand.NewSource(seed)))
				}
			},
			CostDim:        1_756_426,
			FlopsPerSample: nn.CIFARCNNFlopsPerSample,
		},
		{
			Name: "cifar-cnn",
			Make: func(seed int64) (*data.Dataset, *data.Dataset, func() *nn.Network) {
				ds := data.SyntheticCIFAR(600, seed)
				ds.MinMaxScale()
				train, test := ds.Split(5.0 / 6.0)
				return train, test, func() *nn.Network {
					return nn.NewCIFARCNN(rand.New(rand.NewSource(seed)))
				}
			},
			CostDim:        1_756_426,
			FlopsPerSample: nn.CIFARCNNFlopsPerSample,
		},
	}
	sort.SliceStable(exps, func(i, j int) bool { return exps[i].Name < exps[j].Name })
	return exps
}

// LookupExperiment resolves a preset by name.
func LookupExperiment(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q (available: %v)", name, names)
}

// Backend names for Config.Backend.
const (
	// BackendInProcess is the default simulated deployment: workers are
	// method calls on in-process replicas, UDPLinks of them over a lossy link.
	BackendInProcess = "in-process"
	// BackendTCP is the socket-distributed deployment: workers are
	// goroutines speaking the binary wire protocol over real localhost TCP
	// connections (cluster.TCPCluster), driven by the same training loop.
	BackendTCP = "tcp"
	// BackendUDP is the lossy socket-distributed deployment: gradients are
	// chunked into real UDP datagrams (cluster.UDPCluster) with seeded
	// per-packet drop injection and §3.3 recoup of the lost coordinates —
	// the paper's lossyMPI channel over actual sockets.
	BackendUDP = "udp"
)

// Config is a full experiment description (the runner.py command line).
type Config struct {
	// Experiment is the model+dataset preset name.
	Experiment string
	// Backend selects the deployment substrate: "" or "in-process" for the
	// simulated cluster, "tcp" for the socket-distributed cluster, "udp" for
	// the lossy datagram-distributed one (DropRate and Recoup then apply to
	// every worker's real datagrams, not to the first UDPLinks workers').
	Backend string
	// Aggregator is the GAR name ("average", "median", "multi-krum",
	// "bulyan", ... or "draco" for the comparison baseline).
	Aggregator string
	// F is the declared Byzantine tolerance.
	F int
	// Workers is n (19 in the paper's evaluation).
	Workers int
	// Batch is the per-worker mini-batch size.
	Batch int
	// Optimizer is the update rule name (paper default "rmsprop").
	Optimizer string
	// LR is the initial learning rate (paper default 1e-3).
	LR float64
	// L1, L2 are regularisation weights.
	L1, L2 float64
	// Steps is the number of model updates to run.
	Steps int
	// EvalEvery evaluates test accuracy every k steps (default 10).
	EvalEvery int
	// Attacks assigns gradient-level attacks to worker ids.
	Attacks map[int]string
	// CorruptData lists worker ids whose samplers are poisoned
	// (Figure 7's corrupted-data worker).
	CorruptData []int
	// Vanilla selects the unpatched (vulnerable) server mode.
	Vanilla bool
	// HijackWorkers lists worker ids attempting remote parameter writes.
	HijackWorkers []int
	// UDPLinks is how many in-process workers (the first ones, at most
	// Workers) submit over the engine's datagram link. UDPLinks = Workers and
	// Backend "udp" with the same loss axes are one trajectory.
	UDPLinks int
	// WireFormat selects the coordinate width on lossy links — the udp
	// backend's datagrams, the in-process link of UDPLinks: "" or "float64"
	// (the default, lossless) or "float32" (half the bytes; the paper's
	// TensorFlow deployments ship float32 tensors). Reliable deployments
	// always carry float64 and reject a "float32" request.
	WireFormat string
	// DropRate is the artificial packet drop probability on UDP links.
	DropRate float64
	// Recoup selects the lost-coordinate policy on UDP links.
	Recoup transport.RecoupPolicy
	// ModelDropRate is the artificial per-packet drop probability on
	// server→worker model broadcasts (footnote 12's unreliable model
	// channel). Only the udp backend implements a lossy model channel;
	// every other deployment rejects a non-zero value.
	ModelDropRate float64
	// StaleModels selects the worker-side policy for torn model broadcasts
	// on the udp backend: false skips the round, true trains on the last
	// complete model and submits a stale-tagged gradient (ps.Link).
	StaleModels bool
	// Async, when enabled, runs asynchronous bounded-staleness rounds
	// (ps.AsyncConfig: quorum, staleness bound τ, the seeded slow-worker
	// schedule), evaluated at both endpoints of every backend.
	Async ps.AsyncConfig
	// Churn, when enabled, runs the deterministic worker crash/rejoin
	// schedule (ps.ChurnConfig). Requires backend "tcp" or "udp": only real
	// sockets can be torn down.
	Churn ps.ChurnConfig
	// Protocol switches the time model between TCP and UDP costing.
	Protocol simnet.Protocol
	// RTT overrides the simulated link round-trip time when positive
	// (the latency axis of scenario sweeps); zero keeps the Grid5000
	// default.
	RTT time.Duration
	// Seed drives all randomness.
	Seed int64
	// MeasureAgg measures real GAR wall time for the clock (one
	// measurement per run); when false the analytic model is used.
	MeasureAgg bool
	// ServerReplicas > 1 state-machine-replicates the parameter server
	// (§6's untrusted-server extension); workers adopt the 2/3-majority
	// model. ByzantineReplicas marks lying replicas.
	ServerReplicas    int
	ByzantineReplicas []int
	// CheckpointPath, when set, persists the model every CheckpointEvery
	// steps (default: at the end only) and the run resumes from the file
	// if it already exists.
	CheckpointPath  string
	CheckpointEvery int
}

// Result is one experiment's output series.
type Result struct {
	// Accuracy is top-1 accuracy at each evaluation point, against both the
	// simulated clock and model updates.
	Accuracy metrics.Series
	// LossVsStep is mean honest training loss per evaluation point.
	LossVsStep metrics.Series
	// FinalAccuracy is the last evaluation.
	FinalAccuracy float64
	// Breakdown is the per-epoch latency decomposition (Figure 4).
	Breakdown metrics.Breakdown
	// Throughput is the aggregator-side gradient rate (Figure 5).
	Throughput metrics.Throughput
	// Diverged is true when parameters went non-finite (vanilla
	// TensorFlow's fate under attack).
	Diverged bool
	// Hijacked is true when a remote parameter write succeeded.
	Hijacked bool
	// Totals are the rounds' counters, summed.
	ps.Totals
	// ResumedFromStep is the checkpointed step index the run warm-started
	// from (0 for a fresh run).
	ResumedFromStep int
	// params is what training ended on, for the cross-backend parity tests.
	params tensor.Vector
}

// round maps the experiment description onto the round description every
// backend plans from: the schedules pass through as they are, the link axes
// gather into a ps.Link. The socket cluster configs are filled from it
// (clusterConfig), and so is the in-process ps.Config. Only the wire format's
// name can fail to map.
func (c *Config) round() (ps.RoundConfig, error) {
	wire, err := transport.ParseWireFormat(c.WireFormat)
	if err != nil {
		return ps.RoundConfig{}, fmt.Errorf("core: %w", err)
	}
	return ps.RoundConfig{
		Workers: c.Workers, Seed: c.Seed, Recoup: c.Recoup,
		Async: c.Async, Churn: c.Churn, Informed: attack.FirstInformed(c.Attacks),
		Link: ps.Link{
			Codec: wire, MTU: transport.DefaultMTU, GradLoss: c.DropRate, ModelLoss: c.ModelDropRate,
			StaleModels: c.StaleModels,
			Slots:       c.UDPLinks, // 0 on a socket backend: every worker sends datagrams
		},
	}, nil
}

// clusterConfig fills the one socket cluster description both socket backends
// take from the experiment and its round description.
func (c *Config) clusterConfig(rc ps.RoundConfig, factory func() *nn.Network,
	train *data.Dataset, rule gar.GAR, optimizer opt.Optimizer) cluster.UDPClusterConfig {
	return cluster.UDPClusterConfig{
		Addr: "127.0.0.1:0", ModelFactory: factory, Train: train, GAR: rule, Optimizer: optimizer,
		Workers: rc.Workers, Batch: c.Batch, Codec: rc.Link.Codec,
		Byzantine: c.Attacks, Seed: rc.Seed, L1: c.L1, L2: c.L2, Recoup: rc.Recoup,
		Async: rc.Async, Churn: rc.Churn,
		DropRate: rc.Link.GradLoss, ModelDropRate: rc.Link.ModelLoss, StaleModels: rc.Link.StaleModels,
	}
}

// Validate checks an experiment description without running it. What core
// owns are the capability rules — which backend can express which axis: a
// request a deployment cannot honour fails loudly instead of silently running
// without it and masquerading as the sweep the caller asked for. How the
// scheduled axes compose is ps.RoundConfig.Validate's business, asked here
// once. Run starts with it; the scenario engine asks it of every cell before
// a campaign runs.
func (c Config) Validate() error {
	_, err := c.validated()
	return err
}

// validated is Validate, returning the round description the checks were made
// on for Run to build the deployment from.
func (c Config) validated() (ps.RoundConfig, error) {
	c.applyDefaults()
	// Every backend fails on a negative size or silently runs without it, and
	// Byzantine replicas exist only on a replicated server.
	for _, size := range []struct {
		name string
		n    int
	}{{"Batch", c.Batch}, {"Steps", c.Steps}, {"EvalEvery", c.EvalEvery}, {"ServerReplicas", c.ServerReplicas}} {
		if size.n < 0 {
			return ps.RoundConfig{}, fmt.Errorf("core: %s %d is negative", size.name, size.n)
		}
	}
	if len(c.ByzantineReplicas) > 0 && c.ServerReplicas <= 1 {
		return ps.RoundConfig{}, fmt.Errorf("core: ByzantineReplicas %v needs ServerReplicas > 1, got %d", c.ByzantineReplicas, c.ServerReplicas)
	}
	rc, err := c.round()
	if err != nil {
		return rc, err
	}
	if err := c.checkWorkers(); err != nil {
		return rc, err
	}
	switch c.Backend {
	case "", BackendInProcess:
		// Worker churn exists only where there are real sockets to tear down.
		if rc.Churn.Enabled() {
			return rc, fmt.Errorf("core: worker churn needs backend %q or %q, got %q",
				BackendTCP, BackendUDP, c.Backend)
		}
	case BackendTCP, BackendUDP:
		unsupported := ErrUDPUnsupported
		if c.Backend == BackendTCP {
			unsupported = ErrTCPUnsupported
		}
		// Simulator-only options, and loss on a reliable stream.
		if c.UDPLinks > 0 || c.Vanilla || len(c.HijackWorkers) > 0 || len(c.CorruptData) > 0 ||
			c.CheckpointPath != "" || c.ServerReplicas > 1 || c.Aggregator == "draco" ||
			c.Backend == BackendTCP && c.DropRate != 0 {
			return rc, unsupported
		}
	default:
		return rc, fmt.Errorf("core: unknown backend %q (want %s|%s|%s)", c.Backend, BackendInProcess, BackendTCP, BackendUDP)
	}
	// Lossy model broadcasts exist only on the udp backend: the in-process
	// simulator and the tcp backend deliver models reliably.
	if c.Backend != BackendUDP && rc.Link.ModelLossEnabled() {
		return rc, fmt.Errorf("core: lossy model broadcasts (ModelDropRate/StaleModels) need backend %q, got %q", BackendUDP, c.Backend)
	}
	// The wire format is a lossy-link property: only the udp backend and
	// the in-process datagram link have a wire at all.
	if rc.Link.Codec.Float32 && c.Backend != BackendUDP && c.UDPLinks == 0 {
		return rc, fmt.Errorf("core: wire format %q needs backend %q or UDPLinks > 0, got backend %q",
			transport.WireFloat32, BackendUDP, c.Backend)
	}
	// The replicated server and the Draco baseline run lockstep rounds over
	// perfect links to patched servers, and nothing else.
	beyond := c.UDPLinks > 0 || c.Vanilla || len(c.HijackWorkers) > 0 || rc.Async.Enabled()
	if c.ServerReplicas > 1 {
		if beyond {
			return rc, errors.New("core: option not supported with a replicated server")
		}
		if _, err := ps.ByzantineReplicas(c.ServerReplicas, c.ByzantineReplicas); err != nil {
			return rc, fmt.Errorf("core: %w", err)
		}
	}
	if c.Aggregator == "draco" {
		if err := c.validateDraco(beyond); err != nil {
			return rc, err
		}
	}
	if err := rc.Validate(); err != nil {
		return rc, fmt.Errorf("core: %w", err)
	}
	return rc, nil
}

// checkWorkers holds every worker id the config names — attacked, corrupted
// or hijacking — to the Workers workers the run has, and every attack name to
// the attack registry, on every backend.
func (c *Config) checkWorkers() error {
	attacked := slices.Sorted(maps.Keys(c.Attacks))
	for _, named := range []struct {
		field string
		ids   []int
	}{{"Attacks", attacked}, {"CorruptData", c.CorruptData}, {"HijackWorkers", c.HijackWorkers}} {
		for _, id := range named.ids {
			if id < 0 || id >= c.Workers {
				return fmt.Errorf("core: %s names worker %d outside [0, %d)", named.field, id, c.Workers)
			}
		}
	}
	for _, id := range attacked {
		if _, err := attack.New(c.Attacks[id]); err != nil {
			return fmt.Errorf("core: worker %d: %w", id, err)
		}
	}
	return nil
}

// ErrDracoUnsupported is returned for Draco configs that request features
// the baseline does not implement.
var ErrDracoUnsupported = errors.New("core: option not supported with draco")

// validateDraco holds the Draco baseline to what it can express (beyond says
// a lossy link, a vanilla server or asynchronous rounds were asked for): one
// server, n ≥ 2f+1 workers, and no more Byzantine ones than the f its groups
// can outvote.
func (c *Config) validateDraco(beyond bool) error {
	if beyond || c.ServerReplicas > 1 {
		return ErrDracoUnsupported
	}
	if _, err := draco.NewPlan(c.Workers, c.F); err != nil {
		return fmt.Errorf("%w: %w", ErrDracoUnsupported, err)
	}
	if len(c.Attacks) > c.F {
		return fmt.Errorf("%w: %d Byzantine workers exceed the declared tolerance f=%d", ErrDracoUnsupported, len(c.Attacks), c.F)
	}
	return nil
}

// applyDefaults fills unset fields with the paper's evaluation defaults.
func (c *Config) applyDefaults() {
	if c.Experiment == "" {
		c.Experiment = "features-mlp"
	}
	if c.Aggregator == "" {
		c.Aggregator = "multi-krum"
	}
	if c.Workers == 0 {
		c.Workers = 19
	}
	if c.Batch == 0 {
		c.Batch = 100
	}
	if c.Optimizer == "" {
		c.Optimizer = "rmsprop"
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Steps == 0 {
		c.Steps = 200
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 10
	}
}

// buildWorkers assembles the worker list from the experiment description:
// samplers (possibly corrupted), gradient attacks and hijack flags. Under a
// Draco plan a worker samples
// its redundancy group's shared batch — group members MUST see identical
// data, the agreement-on-ordering requirement the paper criticises as
// incompatible with private datasets — and the workers left over once the
// groups are full stay silent.
func buildWorkers(cfg Config, train *data.Dataset, plan *draco.Plan) ([]ps.WorkerConfig, error) {
	workers := make([]ps.WorkerConfig, cfg.Workers)
	for i := range workers {
		var sampler data.Sampler = data.NewUniformSampler(train, ps.SamplerSeed(cfg.Seed, i))
		if plan != nil {
			sampler = &data.GroupSampler{SharedBatch: data.SharedBatch{DS: train}, Group: i / plan.Redundancy(), Seed: cfg.Seed}
		}
		if slices.Contains(cfg.CorruptData, i) {
			sampler = &data.CorruptedSampler{Inner: sampler, Rng: rand.New(rand.NewSource(cfg.Seed + int64(i)))}
		}
		workers[i] = ps.WorkerConfig{
			Sampler:      sampler,
			Seed:         cfg.Seed + int64(i),
			HijackParams: slices.Contains(cfg.HijackWorkers, i),
			Silent:       plan != nil && plan.WorkerLoad(i) == 0,
		}
		if name, ok := cfg.Attacks[i]; ok {
			atk, err := attack.New(name)
			if err != nil {
				return nil, err
			}
			workers[i].Attack = atk
		}
	}
	return workers, nil
}

// ErrTCPUnsupported and ErrUDPUnsupported are returned for socket-backend
// configs that request features only the in-process simulator implements (or,
// on tcp, gradient loss: a reliable stream has none, and silently running the
// config loss-free would masquerade as the lossy sweep the caller asked for).
var (
	ErrTCPUnsupported = errors.New("core: option not supported with the tcp backend")
	ErrUDPUnsupported = errors.New("core: option not supported with the udp backend")
)

// deployment is what the shared runner drives: any trainer that also exposes
// a copy of its parameters (checkpoints, the result) and takes a restore.
type deployment interface {
	ps.Trainer
	Params() tensor.Vector
	SetParams(tensor.Vector) error
}

// Run executes one experiment: the in-process simulated cluster by default,
// or — Backend "tcp"/"udp" — a cluster.TCPCluster or cluster.UDPCluster on
// localhost, every model broadcast and gradient travelling the binary wire
// protocol over real sockets. Run only assembles: it picks the rule (a
// registry GAR, or the Draco plan), the workers' samplers and the constructor
// (ps.New, ps.NewReplicated, a socket cluster). Every deployment is then driven
// round-by-round by the same training loop, simulated clock, divergence check
// and checkpoints, on the one round engine, with worker seeds derived from the
// run seed through the shared ps formulas — so a configuration is one
// trajectory on every backend that accepts it: tcp reproduces in-process bit
// for bit, and udp at any drop rate the in-process run with UDPLinks = Workers.
func Run(cfg Config) (*Result, error) {
	cfg.applyDefaults()
	rc, err := cfg.validated()
	if err != nil {
		return nil, err
	}
	socket := cfg.Backend == BackendTCP || cfg.Backend == BackendUDP
	exp, err := LookupExperiment(cfg.Experiment)
	if err != nil {
		return nil, err
	}
	train, test, factory := exp.Make(cfg.Seed)

	// "tf" is the vanilla TensorFlow baseline: plain averaging with no
	// framework aggregation cost on the clock (the paper's Average-GAR
	// deployment of AggregaThor costs ≈7% more than this baseline). "draco" is
	// the comparison baseline: its repetition plan is the rule — the
	// per-group majority vote is an aggregation stage — and says which batch
	// each worker samples.
	aggName := cfg.Aggregator
	if aggName == "tf" {
		aggName = "average"
	}
	var plan *draco.Plan
	var rule gar.GAR
	if aggName == "draco" {
		plan, err = draco.NewPlan(cfg.Workers, cfg.F)
		rule = plan
	} else {
		rule, err = gar.New(aggName, cfg.F)
	}
	if err != nil {
		return nil, err
	}
	newOptimizer := func() (opt.Optimizer, error) { return opt.New(cfg.Optimizer, opt.Fixed{Rate: cfg.LR}) }
	optimizer, err := newOptimizer()
	if err != nil {
		return nil, err
	}

	var cl deployment
	if socket {
		sc := cfg.clusterConfig(rc, factory, train, rule, optimizer)
		var sock interface {
			deployment
			Start() error
			Close() error
		}
		if cfg.Backend == BackendTCP {
			sock, err = cluster.NewTCPCluster(sc)
		} else {
			sock, err = cluster.NewUDPCluster(sc)
		}
		if err != nil {
			return nil, err
		}
		if err := sock.Start(); err != nil {
			return nil, err
		}
		defer sock.Close()
		cl = sock
	} else {
		workers, err := buildWorkers(cfg, train, plan)
		if err != nil {
			return nil, err
		}
		if cfg.ServerReplicas > 1 {
			cl, err = ps.NewReplicated(ps.ReplicatedConfig{
				ModelFactory: factory, ServerReplicas: cfg.ServerReplicas, ByzantineReplicas: cfg.ByzantineReplicas,
				Workers: workers, GAR: rule, Batch: cfg.Batch, L1: cfg.L1, L2: cfg.L2, Seed: cfg.Seed,
				OptimizerFactory: func() opt.Optimizer {
					o, _ := newOptimizer() // the name resolved above
					return o
				},
			})
		} else {
			mode := ps.Patched
			if cfg.Vanilla {
				mode = ps.Vanilla
			}
			pc := ps.Config{
				ModelFactory: factory, Workers: workers, GAR: rule, Optimizer: optimizer,
				Batch: cfg.Batch, Mode: mode, L1: cfg.L1, L2: cfg.L2, Seed: cfg.Seed, Async: rc.Async,
			}
			// Without UDPLinks every worker has a message link, whatever
			// DropRate says to the simulated clock.
			if cfg.UDPLinks > 0 {
				pc.Link, pc.Recoup = rc.Link, rc.Recoup
			}
			cl, err = ps.New(pc)
		}
		if err != nil {
			return nil, err
		}
	}

	round, err := simulatedRound(cfg, exp, rule, aggName)
	if err != nil {
		return nil, err
	}

	res := &Result{Breakdown: metrics.Breakdown{ComputeComm: round.Compute + round.Transfer, Aggregation: round.Aggregate}}
	// Checkpoint restore (warm start) when a checkpoint file exists.
	if cfg.CheckpointPath != "" {
		if step, params, err := nn.LoadCheckpointFile(cfg.CheckpointPath); err == nil {
			if err := cl.SetParams(params); err != nil {
				return nil, fmt.Errorf("core: restoring checkpoint: %w", err)
			}
			res.ResumedFromStep = step
		}
	}
	if err := runTraining(cfg, cl, test, round, res); err != nil {
		if socket {
			err = fmt.Errorf("core: %s backend: %w", cfg.Backend, err)
		}
		return nil, err
	}
	if err := cfg.checkpoint(cl, res.ResumedFromStep+cfg.Steps); err != nil {
		return nil, err
	}
	return res, nil
}

// checkpoint persists the deployment's parameters as absolute step `step`
// when the run keeps a checkpoint file.
func (c *Config) checkpoint(cl deployment, step int) error {
	if c.CheckpointPath == "" {
		return nil
	}
	return nn.SaveCheckpointFile(c.CheckpointPath, step, cl.Params())
}

// simulatedRound builds the paper-scale time model for one experiment — this
// experiment's cost profile on the Grid5000-like cluster, with aggregation
// time measured on real GAR execution or taken from the analytic model — and
// simulates one round. Every deployment costs its simulated clock through
// this one function, so identical configurations get identical time series.
func simulatedRound(cfg Config, exp Experiment, rule gar.GAR, aggName string) (simnet.Round, error) {
	sim := simnet.Grid5000(cfg.Workers, exp.CostDim)
	sim.FlopsPerSample = exp.FlopsPerSample
	sim.Protocol = cfg.Protocol
	sim.DropRate = cfg.DropRate
	if cfg.RTT > 0 {
		sim.RTT = cfg.RTT
	}
	switch {
	case cfg.Aggregator == "tf":
		sim.AggTime = 0
	case aggName == "draco":
		// Under the repetition scheme each worker computes one gradient per
		// step (the cluster computes 2f+1× more gradients per *effective*
		// batch); the dominant cost is the linear-in-n decode, which is why
		// the paper observes Draco's throughput to be f-insensitive and an
		// order of magnitude below the TensorFlow-based systems.
		sim.DecodeTime = simnet.ModelAggregation(aggName, cfg.Workers, cfg.F, exp.CostDim)
	case cfg.MeasureAgg:
		measured, err := simnet.MeasureAggregation(rule, cfg.Workers, exp.CostDim, cfg.Seed)
		if err != nil {
			return simnet.Round{}, err
		}
		sim.AggTime = measured
	default:
		sim.AggTime = simnet.ModelAggregation(aggName, cfg.Workers, cfg.F, exp.CostDim)
	}
	return sim.SimulateRound(cfg.Batch), nil
}

// ThroughputScan runs the Figure-5 sweep: batches/sec as a function of
// worker count for one aggregator, using the analytic time model (no
// training — the paper's throughput metric is purely systems-side).
func ThroughputScan(aggregator string, f int, workerCounts []int, dim int, flopsPerSample float64, batch int) map[int]float64 {
	out := make(map[int]float64, len(workerCounts))
	for _, n := range workerCounts {
		sim := simnet.Grid5000(n, dim)
		sim.FlopsPerSample = flopsPerSample
		switch aggregator {
		case "tf":
			// vanilla baseline: no aggregation cost on the clock
		case "draco":
			sim.DecodeTime = simnet.ModelAggregation("draco", n, f, dim)
		default:
			sim.AggTime = simnet.ModelAggregation(aggregator, n, f, dim)
		}
		round := sim.SimulateRound(batch)
		out[n] = float64(n) / round.Total().Seconds()
	}
	return out
}
