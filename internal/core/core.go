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
	"io/fs"
	"maps"
	"math/rand"
	"slices"
	"sort"

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

// Backend names for Network.Backend.
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

// Network is one network condition, written as its JSON reads: a campaign
// cell is a name and a Network, and a Config holds one. Every string form is
// parsed by Config.round, the one mapping onto ps.RoundConfig; the zero value
// is the in-process perfect transport.
type Network struct {
	// Backend selects the deployment substrate: "" or "in-process" runs the
	// simulated cluster, "tcp" a socket-distributed cluster.TCPCluster on
	// localhost (every model broadcast and gradient travels the wire), "udp"
	// a lossy datagram-distributed cluster.UDPCluster — gradients chunked
	// into UDP packets with seeded drop injection at DropRate and §3.3 recoup
	// of the lost coordinates. The socket backends refuse UDPLinks.
	Backend string `json:"backend,omitempty"`
	// UDPLinks is how many in-process workers (the first ones) submit over
	// the engine's datagram link; -1 means every worker, and then the run is
	// the trajectory of the same network on backend "udp". 0 (the default)
	// is the in-process perfect transport.
	UDPLinks int `json:"udpLinks,omitempty"`
	// DropRate is the per-packet loss probability in [0, 1), applied on the
	// in-process datagram link and on the udp backend's real datagrams.
	DropRate float64 `json:"dropRate,omitempty"`
	// Recoup selects the lost-coordinate policy on lossy links:
	// drop-gradient | fill-nan | fill-random ("", the default).
	Recoup string `json:"recoup,omitempty"`
	// ModelDropRate is the per-packet loss probability in [0, 1) on
	// server→worker model broadcasts (footnote 12's unreliable model
	// channel). Requires backend "udp"; which packets drop is a pure function
	// of (seed, step, worker) via ps.ModelDropSeed.
	ModelDropRate float64 `json:"modelDropRate,omitempty"`
	// WireFormat selects the coordinate width on lossy links — the udp
	// backend's datagrams, the in-process link of UDPLinks: "" or "float64"
	// (the default, lossless) or "float32" (half the bytes; the paper's
	// TensorFlow deployments ship float32 tensors). Reliable deployments
	// always carry float64 and refuse "float32".
	WireFormat string `json:"wireFormat,omitempty"`
	// ModelRecoup selects the worker policy for torn model broadcasts:
	// "skip" (the default — sit the round out) or "stale" (train on the last
	// complete model and submit a stale-tagged gradient, ps.Link's
	// StaleModels). Requires backend "udp".
	ModelRecoup string `json:"modelRecoup,omitempty"`
	// AsyncConfig, when enabled, runs asynchronous bounded-staleness rounds
	// (quorum, staleness bound τ, the seeded slow-worker schedule), evaluated
	// at both endpoints of every backend.
	ps.AsyncConfig
	// Churn, when present with a positive rate, runs the deterministic
	// worker crash/rejoin schedule. Requires backend "tcp" or "udp": only
	// real sockets can be torn down.
	Churn *ps.ChurnConfig `json:"churn,omitempty"`
	// Protocol costs the simulated clock as "tcp" (the default) or "udp".
	Protocol string `json:"protocol,omitempty"`
}

// Config is a full experiment description (the runner.py command line).
type Config struct {
	// Experiment is the model+dataset preset name.
	Experiment string
	// Network is the deployment and its network condition.
	Network Network
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
	params          tensor.Vector // what training ended on, for the parity tests
	slots           uint64        // an FNV-1a digest of every round's Slots, likewise
}

// round maps the experiment description onto the round description every
// backend plans from, and names the protocol its clock is costed as: the
// schedules pass through as they are, the link axes gather into a ps.Link.
// It is the one parser of the Network's string forms — recoup, model recoup,
// wire format, protocol — and resolves UDPLinks = -1 to every worker. The
// socket cluster configs are filled from it (clusterConfig), and so is the
// in-process ps.Config.
func (c *Config) round() (rc ps.RoundConfig, proto simnet.Protocol, err error) {
	n := c.Network
	rc.Recoup = transport.FillRandom
	if n.Recoup != "" {
		rc.Recoup, err = transport.ParseRecoupPolicy(n.Recoup)
	}
	if err == nil {
		rc.Link.Codec, err = transport.ParseWireFormat(n.WireFormat)
	}
	switch {
	case err != nil:
		return rc, proto, fmt.Errorf("core: %w", err)
	case n.ModelRecoup != "" && n.ModelRecoup != "skip" && n.ModelRecoup != "stale":
		return rc, proto, fmt.Errorf("core: unknown model recoup policy %q (want skip|stale)", n.ModelRecoup)
	case n.Protocol != "" && n.Protocol != "tcp" && n.Protocol != "udp":
		return rc, proto, fmt.Errorf("core: unknown protocol %q (want tcp|udp)", n.Protocol)
	}
	if n.Protocol == "udp" {
		proto = simnet.UDP
	}
	rc.Workers, rc.Seed, rc.Async, rc.Informed = c.Workers, c.Seed, n.AsyncConfig, attack.FirstInformed(c.Attacks)
	if n.Churn != nil {
		rc.Churn = *n.Churn
	}
	rc.Link.MTU, rc.Link.GradLoss, rc.Link.ModelLoss = transport.DefaultMTU, n.DropRate, n.ModelDropRate
	rc.Link.StaleModels = n.ModelRecoup == "stale"
	rc.Link.Slots = n.UDPLinks // 0 on a socket backend: every worker sends datagrams
	if n.UDPLinks == -1 {
		rc.Link.Slots = c.Workers
	}
	return rc, proto, nil
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
	_, _, err := c.validated()
	return err
}

// validated is Validate on a Config it fills with the defaults, returning the
// round description and clock protocol the checks were made on for Run to
// build the deployment from.
func (c *Config) validated() (ps.RoundConfig, simnet.Protocol, error) {
	c.applyDefaults()
	rc, proto, err := c.round()
	if err == nil {
		err = c.check(rc)
	}
	return rc, proto, err
}

// check holds the defaulted experiment to what its deployment can express,
// given the round description it maps onto.
func (c *Config) check(rc ps.RoundConfig) error {
	// Every backend fails on a negative size or silently runs without it, and
	// Byzantine replicas exist only on a replicated server.
	for _, size := range []struct {
		name string
		n    int
	}{{"Batch", c.Batch}, {"Steps", c.Steps}, {"EvalEvery", c.EvalEvery}, {"ServerReplicas", c.ServerReplicas}} {
		if size.n < 0 {
			return fmt.Errorf("core: %s %d is negative", size.name, size.n)
		}
	}
	if len(c.ByzantineReplicas) > 0 && c.ServerReplicas <= 1 {
		return fmt.Errorf("core: ByzantineReplicas %v needs ServerReplicas > 1, got %d", c.ByzantineReplicas, c.ServerReplicas)
	}
	if err := c.checkWorkers(); err != nil {
		return err
	}
	backend, links := c.Network.Backend, rc.Link.Slots
	switch backend {
	case "", BackendInProcess:
		// Worker churn exists only where there are real sockets to tear down.
		if rc.Churn.Enabled() {
			return fmt.Errorf("core: worker churn needs backend %q or %q, got %q",
				BackendTCP, BackendUDP, backend)
		}
	case BackendTCP, BackendUDP:
		unsupported := ErrUDPUnsupported
		if backend == BackendTCP {
			unsupported = ErrTCPUnsupported
		}
		// Simulator-only options, and loss on a reliable stream.
		if links > 0 || c.Vanilla || len(c.HijackWorkers) > 0 || len(c.CorruptData) > 0 ||
			c.CheckpointPath != "" || c.ServerReplicas > 1 || c.Aggregator == "draco" ||
			backend == BackendTCP && rc.Link.GradLoss != 0 {
			return unsupported
		}
	default:
		return fmt.Errorf("core: unknown backend %q (want %s|%s|%s)", backend, BackendInProcess, BackendTCP, BackendUDP)
	}
	// Lossy model broadcasts exist only on the udp backend: the in-process
	// simulator and the tcp backend deliver models reliably.
	if backend != BackendUDP && rc.Link.ModelLossEnabled() {
		return fmt.Errorf("core: lossy model broadcasts (modelDropRate, modelRecoup stale) need backend %q, got %q", BackendUDP, backend)
	}
	// The wire format is a lossy-link property: only the udp backend and
	// the in-process datagram link have a wire at all.
	if rc.Link.Codec.Float32 && backend != BackendUDP && links == 0 {
		return fmt.Errorf("core: wire format %q needs backend %q or UDPLinks > 0, got backend %q",
			transport.WireFloat32, BackendUDP, backend)
	}
	// The replicated server and the Draco baseline run lockstep rounds over
	// perfect links to patched servers, and nothing else.
	beyond := links > 0 || c.Vanilla || len(c.HijackWorkers) > 0 || rc.Async.Enabled()
	if c.ServerReplicas > 1 {
		if beyond {
			return errors.New("core: option not supported with a replicated server")
		}
		if _, err := ps.ByzantineReplicas(c.ServerReplicas, c.ByzantineReplicas); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if c.Aggregator == "draco" {
		if err := c.validateDraco(beyond); err != nil {
			return err
		}
	}
	if err := rc.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
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

// deployment is what the shared runner drives — ps.Cluster (a Draco run is
// one), ps.ReplicatedCluster and the socket clusters alike: one synchronous
// round a Step, the evaluation replica synchronised with the current
// parameters, a copy of those parameters (checkpoints, the result) and a
// restore.
type deployment interface {
	Step() (*ps.StepResult, error)
	Model() *nn.Network
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
	rc, proto, err := cfg.validated()
	if err != nil {
		return nil, err
	}
	backend := cfg.Network.Backend
	socket := backend == BackendTCP || backend == BackendUDP
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
		if backend == BackendTCP {
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
			if rc.Link.Slots > 0 {
				pc.Link, pc.Recoup = rc.Link, rc.Recoup
			}
			cl, err = ps.New(pc)
		}
		if err != nil {
			return nil, err
		}
	}

	round, err := simulatedRound(cfg, proto, exp, rule, aggName)
	if err != nil {
		return nil, err
	}

	res := &Result{Breakdown: metrics.Breakdown{ComputeComm: round.Compute + round.Transfer, Aggregation: round.Aggregate}}
	// Checkpoint restore (warm start) when a checkpoint file exists; one
	// that exists and does not load fails the run before it can be
	// overwritten.
	if cfg.CheckpointPath != "" {
		step, params, err := nn.LoadCheckpointFile(cfg.CheckpointPath)
		if err == nil {
			err = cl.SetParams(params)
		}
		switch {
		case errors.Is(err, fs.ErrNotExist):
		case err != nil:
			return nil, fmt.Errorf("core: restoring checkpoint: %w", err)
		default:
			res.ResumedFromStep = step
		}
	}
	if err := runTraining(cfg, cl, test, round, res); err != nil {
		if socket {
			err = fmt.Errorf("core: %s backend: %w", backend, err)
		}
		return nil, err
	}
	// A diverged run's parameters are non-finite: the last checkpoint it
	// wrote, at the step its parameters were at, stands.
	if !res.Diverged {
		if err := cfg.checkpoint(cl, res.ResumedFromStep+cfg.Steps); err != nil {
			return nil, err
		}
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
func simulatedRound(cfg Config, proto simnet.Protocol, exp Experiment, rule gar.GAR, aggName string) (simnet.Round, error) {
	sim := simnet.Grid5000(cfg.Workers, exp.CostDim)
	sim.FlopsPerSample = exp.FlopsPerSample
	sim.Protocol = proto
	sim.DropRate = cfg.Network.DropRate
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
