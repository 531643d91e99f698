// Package ps implements the synchronous parameter-server training loop of
// the paper (§3.1–3.2): the server broadcasts the model, every worker —
// honest or Byzantine — submits a gradient for the step, the configured GAR
// aggregates, and the optimizer applies the descent update.
//
// Two behaviours from the paper's systems contribution are modelled
// explicitly:
//
//   - Security mode. Vanilla TensorFlow lets any node execute operations
//     anywhere in the cluster, so a single Byzantine worker can overwrite
//     the shared parameters regardless of the GAR. Vanilla mode reproduces
//     that vulnerability; Patched mode (the paper's TensorFlow code patch:
//     "ps" jobs discard remote graph definitions/executions) refuses remote
//     writes.
//
//   - Bounded waiting. TensorFlow waits indefinitely for non-responding
//     nodes (incompatible with Byzantine workers); here the collection phase
//     simply proceeds with whatever gradients the links delivered, and a
//     round whose survivor count violates the GAR's requirement is skipped
//     rather than deadlocked.
package ps

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"aggregathor/internal/attack"
	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// SecurityMode selects whether the server accepts remote parameter writes.
type SecurityMode int

const (
	// Patched is the AggregaThor default: only gradient pushes accepted.
	Patched SecurityMode = iota
	// Vanilla reproduces the TensorFlow vulnerability: any worker may
	// overwrite the shared parameters.
	Vanilla
)

// ErrForbidden is returned by remote writes in Patched mode.
var ErrForbidden = errors.New("ps: remote parameter write forbidden (patched server)")

// WorkerConfig describes one worker node.
type WorkerConfig struct {
	// Sampler provides the worker's mini-batches (possibly corrupted —
	// the Figure 7 data-poisoning path).
	Sampler data.Sampler
	// Attack, when non-nil, makes the worker Byzantine at the gradient
	// level: it submits Attack.Forge(...) instead of its honest gradient.
	Attack attack.Attack
	// HijackParams makes the worker attempt a remote parameter overwrite
	// every step (succeeds only against a Vanilla server).
	HijackParams bool
	// Silent makes the worker never submit a gradient (crash/withhold).
	Silent bool
	// Seed drives the worker's attack randomness.
	Seed int64
}

// Config assembles a training cluster.
type Config struct {
	// ModelFactory builds one network replica; called once for the server
	// and once per worker (in-graph replication: identical structure,
	// server-owned parameters). A replica holds its parameters as one flat
	// store — the server's is the parameter authority itself, a worker's is
	// what each broadcast is loaded (over TCP, received) into — and, once it
	// has trained, one flat gradient store its submissions are borrowed from.
	ModelFactory func() *nn.Network
	// Workers lists the n worker nodes.
	Workers []WorkerConfig
	// GAR is the gradient aggregation rule.
	GAR gar.GAR
	// Optimizer applies aggregated gradients (RMSProp lr=1e-3 in the
	// paper's evaluation).
	Optimizer opt.Optimizer
	// Batch is the per-worker mini-batch size.
	Batch int
	// Mode selects the security behaviour (Patched by default).
	Mode SecurityMode
	// L1, L2 are the regularisation weights.
	L1, L2 float64
	// Seed is the run seed the schedules (slow workers, link loss) key on.
	Seed int64
	// Async configures asynchronous bounded-staleness rounds; the zero
	// value is lockstep and leaves every code path byte-identical.
	Async AsyncConfig
	// Link, when its MTU is set, puts the workers it carries (Link.Slots) on
	// a datagram link: their transfers are split, dropped per the plan and
	// wire-encoded exactly as a udp-backend worker's. Recoup is the policy
	// for what a round ends without.
	Link   Link
	Recoup transport.RecoupPolicy
}

// Cluster is an assembled synchronous training deployment: the round engine
// plus the in-process workers — their replicas and attack RNGs. Its worker
// half (round) is the only in-process worker implementation; a
// ReplicatedCluster is a Cluster holding one engine per correct server
// replica behind a vote.
type Cluster struct {
	*Server  // the parameter authority: the first engine's
	cfg      Config
	engines  []*Engine // one; one per correct replica under a ReplicatedCluster
	rounds   []*Round  // the engines' current rounds (scratch)
	replicas []*nn.Network
	rngs     []*rand.Rand
	models   *Models // the broadcasts a slow worker can still be told to train on
	hijacked bool
	// The round's honest gradients (each worker's borrowed from its replica
	// until Finish) and losses by worker, and the correct workers' gradients.
	honest  []tensor.Vector
	losses  []float64
	correct []tensor.Vector
	// The datagram link's state (nil without one): the round's broadcast as
	// it reads off the wire, those a slow worker may yet train on, scratch.
	received   tensor.Vector
	wireModels *Models
	pkts       []transport.Packet
	wire       []byte
	pkt        transport.Packet
}

// StepResult reports one synchronous round.
type StepResult struct {
	// Step is the model-update index of this round (before increment).
	Step int
	// Loss is the mean training loss over honest workers this round.
	Loss float64
	// Received is how many gradients survived the links.
	Received int
	// Skipped is true when the round could not aggregate (too few
	// survivors for the GAR) and the model was left unchanged.
	Skipped bool
	// Hijacked is true when a Byzantine worker overwrote the parameters
	// this round (Vanilla mode only).
	Hijacked bool
	// Stale counts slots settled this round from a stale-model submission:
	// on the lossy-model UDP backend, a worker whose broadcast was torn
	// trained on its last complete model and the server accepted the
	// resulting gradient into the current round (Link.StaleModels).
	Stale int
	// AdmittedStale counts slots aggregated this round off a model up to τ
	// steps old, per the asynchronous slow-worker schedule; DroppedStale the
	// slots that schedule dropped because the lag exceeded τ — the server
	// never waits for (or recoups) these.
	AdmittedStale, DroppedStale int
	// Crashes counts workers the churn schedule crashed this round (each took
	// the broadcast and tore its sockets down without submitting: the slot is
	// dropped, never awaited or recouped), Rejoins those it re-admitted, and
	// ReconnectAttempts the dial attempts behind the rejoins — one each on
	// the scheduled path.
	Crashes, Rejoins, ReconnectAttempts int
	// BelowBound is true when the round was skipped because live
	// membership fell below the GAR's Byzantine safety bound (n_live <
	// MinWorkers, e.g. 2f+3 for Krum-family rules): the server refuses to
	// aggregate unsafely and leaves the model unchanged (Skipped is also
	// set).
	BelowBound bool
}

// Totals sums a run's StepResults into what an experiment result and a
// campaign cell both report, under the campaign JSON's names: each field is
// the run total of the StepResult field Add folds into it. The slow-schedule
// and churn counters are exact functions of the seed, omitted when zero.
type Totals struct {
	SkippedRounds     int `json:"skippedRounds"`
	StaleGradients    int `json:"staleGradients"`
	AdmittedStale     int `json:"admittedStale,omitempty"`
	DroppedTooStale   int `json:"droppedTooStale,omitempty"`
	Crashes           int `json:"crashes,omitempty"`
	Rejoins           int `json:"rejoins,omitempty"`
	ReconnectAttempts int `json:"reconnectAttempts,omitempty"`
	BelowBoundRounds  int `json:"belowBoundRounds,omitempty"`
}

// Add folds one round into the totals.
func (t *Totals) Add(r *StepResult) {
	if r.Skipped {
		t.SkippedRounds++
	}
	if r.BelowBound {
		t.BelowBoundRounds++
	}
	t.StaleGradients += r.Stale
	t.AdmittedStale += r.AdmittedStale
	t.DroppedTooStale += r.DroppedStale
	t.Crashes += r.Crashes
	t.Rejoins += r.Rejoins
	t.ReconnectAttempts += r.ReconnectAttempts
}

// round maps the in-process description onto the one the engine validates
// and plans from. A ps.Config has no churn to declare.
func (cfg *Config) round() RoundConfig {
	rc := RoundConfig{Workers: len(cfg.Workers), Seed: cfg.Seed, Async: cfg.Async, Link: cfg.Link, Recoup: cfg.Recoup}
	for _, w := range cfg.Workers {
		if rc.Informed == "" && attack.NeedsHonest(w.Attack) {
			rc.Informed = w.Attack.Name()
		}
	}
	return rc
}

// engine builds a round engine — a server: its own model replica, the
// configuration's rule and optimizer — for the configuration.
func (cfg *Config) engine() (*Engine, error) {
	byzantine := make([]bool, len(cfg.Workers))
	for i, w := range cfg.Workers {
		byzantine[i] = w.Attack != nil
	}
	return NewEngine(EngineConfig{
		RoundConfig: cfg.round(), Model: cfg.ModelFactory(), GAR: cfg.GAR, Optimizer: cfg.Optimizer,
		L1: cfg.L1, L2: cfg.L2, Byzantine: byzantine,
	})
}

// New validates the configuration and builds the cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.ModelFactory == nil {
		return nil, errors.New("ps: ModelFactory is required")
	}
	if cfg.GAR == nil {
		return nil, errors.New("ps: GAR is required")
	}
	if cfg.Optimizer == nil {
		return nil, errors.New("ps: Optimizer is required")
	}
	if cfg.Batch <= 0 {
		return nil, fmt.Errorf("ps: batch size %d", cfg.Batch)
	}
	if cfg.Link.ModelLossEnabled() {
		return nil, errors.New("ps: the in-process cluster delivers every model broadcast whole: its link takes no ModelLoss or StaleModels")
	}
	if info, ok := cfg.GAR.(gar.ByzantineInfo); ok {
		if len(cfg.Workers) < info.MinWorkers() {
			return nil, fmt.Errorf("ps: %s(f=%d) needs %d workers, got %d",
				cfg.GAR.Name(), info.F(), info.MinWorkers(), len(cfg.Workers))
		}
	}
	eng, err := cfg.engine()
	if err != nil {
		return nil, err
	}
	c := &Cluster{Server: &eng.Server, cfg: cfg, engines: []*Engine{eng}}
	c.models = NewModels(&eng.cfg.RoundConfig, eng.params.Dim())
	if cfg.Link.MTU > 0 {
		c.received, c.wireModels = tensor.NewVector(eng.params.Dim()), NewModels(&eng.cfg.RoundConfig, eng.params.Dim())
	}
	c.replicas = make([]*nn.Network, len(cfg.Workers))
	c.rngs = make([]*rand.Rand, len(cfg.Workers))
	c.honest, c.losses = make([]tensor.Vector, len(cfg.Workers)), make([]float64, len(cfg.Workers))
	for i, w := range cfg.Workers {
		if w.Sampler == nil && w.Attack == nil && !w.Silent {
			return nil, fmt.Errorf("ps: worker %d has no sampler and no attack", i)
		}
		c.replicas[i] = cfg.ModelFactory()
		if c.replicas[i].NumParams() != c.net.NumParams() {
			return nil, fmt.Errorf("ps: worker %d replica dimension %d != server %d",
				i, c.replicas[i].NumParams(), c.net.NumParams())
		}
		c.rngs[i] = rand.New(rand.NewSource(w.Seed + int64(i)*7919))
	}
	return c, nil
}

// Step runs one synchronous round: a Vanilla server takes the hijackers'
// remote writes, then the workers train on the server's model.
func (c *Cluster) Step() (*StepResult, error) {
	hijacked := c.hijackPhase()
	res, err := c.round(c.params)
	if err != nil {
		return nil, err
	}
	res.Hijacked = hijacked
	return res, nil
}

// round is the in-process round: the workers compute on params — the model
// they were handed — and forge, every submission goes to every engine over
// the worker's link (submit), and each engine settles the same submissions,
// aggregates and descends. The engines share one round description and so
// one plan; the first one's is read, and its result returned.
func (c *Cluster) round(params tensor.Vector) (*StepResult, error) {
	n := len(c.cfg.Workers)
	c.rounds = c.rounds[:0]
	for _, e := range c.engines {
		c.rounds = append(c.rounds, e.Begin())
	}
	round := c.rounds[0]
	step := round.Step()
	// Retain the round's broadcast model so workers the slow schedule marks
	// stale in later rounds can train on it — over the datagram link as it
	// reads off the wire, like a udp-backend broadcast.
	c.models.Retain(step, params)
	if c.received != nil {
		c.overWire(&transport.GradientMsg{Worker: transport.ModelWorkerID, Step: step, Grad: params}, nil,
			func(p *transport.Packet) { copy(c.received[p.Offset:], p.Coords) })
		c.wireModels.Retain(step, c.received)
	}

	// Broadcast + honest compute phase (parallel, one goroutine per
	// worker, each on its own replica). round.Tag is the worker's half of
	// the shared schedule: the current step when fresh, an older one to
	// train on the retained model, -1 to sit the round out.
	honest, losses := c.honest, c.losses
	clear(honest)
	clear(losses)
	var wg sync.WaitGroup
	for i := range c.cfg.Workers {
		w := &c.cfg.Workers[i]
		if w.Silent || w.Sampler == nil || round.Tag(i) < 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			params, models := params, c.models
			if c.cfg.Link.datagram(i) {
				params, models = c.received, c.wireModels
			}
			if tag := round.Tag(i); tag < step {
				params = models.At(tag)
			}
			c.replicas[i].SetParamsVector(params)
			x, y := c.cfg.Workers[i].Sampler.Sample(c.cfg.Batch)
			// Borrowed from the worker's own replica: the engines drop it
			// in Finish, before the replica's next backward pass.
			losses[i], honest[i] = c.replicas[i].GradientView(x, y)
		}(i)
	}
	wg.Wait()

	// Forge phase: Byzantine workers see every correct gradient (§3.1's
	// omniscient adversary) before crafting their submission.
	correct := c.correct[:0]
	byzCount := 0
	for i, w := range c.cfg.Workers {
		if w.Attack != nil {
			byzCount++
		} else if honest[i] != nil {
			correct = append(correct, honest[i])
		}
	}
	for i := range c.cfg.Workers {
		w, tag := &c.cfg.Workers[i], round.Tag(i)
		if w.Silent || tag < 0 {
			continue
		}
		g := honest[i]
		if w.Attack != nil {
			g = w.Attack.Forge(&attack.Context{
				Step: tag, Honest: correct, Own: honest[i],
				N: n, F: byzCount, Dim: params.Dim(), Rng: c.rngs[i],
			})
		}
		if g == nil {
			continue
		}
		if err := c.submit(&transport.GradientMsg{Worker: i, Step: tag, Loss: losses[i], Grad: g}); err != nil {
			return nil, err
		}
	}
	c.correct = correct
	var first *StepResult
	for _, round := range c.rounds {
		res, err := round.Finish()
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = res
		}
	}
	return first, nil
}

// submit offers every engine one submission: whole over a message link, and
// over the datagram link the packets the plan's uplink mask leaves of it, to
// reassemble and recoup. The loss is packet metadata: no packet, no loss.
func (c *Cluster) submit(m *transport.GradientMsg) (err error) {
	admit := func(v Admission) {
		if !v.Admitted() && err == nil {
			err = fmt.Errorf("ps: worker %d submission tagged %d at step %d: %v", m.Worker, m.Step, c.step, v)
		}
	}
	if !c.cfg.Link.datagram(m.Worker) {
		for _, round := range c.rounds {
			admit(round.Offer(m.Worker, m.Step, m.Grad, m.Loss))
		}
		return err
	}
	c.overWire(m, c.engines[0].slots[m.Worker].plan.Uplink, func(p *transport.Packet) {
		for _, round := range c.rounds {
			admit(round.OfferPacket(p))
		}
	})
	return err
}

// overWire moves one transfer as the udp backend's endpoints do, minus the
// socket: split at the link's MTU, less the packets dropped masks, each
// survivor through the wire encoding — so the coordinate width is the wire's
// — to deliver, which must not keep the packet.
func (c *Cluster) overWire(m *transport.GradientMsg, dropped []bool, deliver func(*transport.Packet)) {
	link := &c.cfg.Link
	c.pkts = link.Codec.SplitInto(c.pkts[:0], m, link.MTU)
	for i := range c.pkts {
		if i < len(dropped) && dropped[i] {
			continue
		}
		c.wire = link.Codec.AppendPacket(c.wire[:0], &c.pkts[i])
		if err := link.Codec.DecodePacketInto(&c.pkt, c.wire); err != nil {
			panic(err) // the codec cannot read its own encoding
		}
		deliver(&c.pkt)
	}
}

// hijackPhase is the Vanilla-mode vulnerability: a Byzantine worker's remote
// write lands before aggregation even starts (this is how the TensorFlow
// distributed example shares parameters). It reports whether any write
// succeeded.
func (c *Cluster) hijackPhase() bool {
	hijacked := false
	for i, w := range c.cfg.Workers {
		if !w.HijackParams {
			continue
		}
		garbage := tensor.NewVector(c.params.Dim())
		for j := range garbage {
			garbage[j] = c.rngs[i].NormFloat64() * 1e3
		}
		if err := c.RemoteAssign(garbage); err == nil {
			hijacked = true
		}
	}
	return hijacked
}

// RemoteAssign is the remote parameter-write RPC: a Vanilla server applies
// it (the TensorFlow vulnerability), a Patched server refuses.
func (c *Cluster) RemoteAssign(params tensor.Vector) error {
	if c.cfg.Mode != Vanilla {
		return ErrForbidden
	}
	if params.Dim() != c.params.Dim() {
		return fmt.Errorf("ps: remote assign dimension %d, want %d", params.Dim(), c.params.Dim())
	}
	c.hijacked = true
	return c.SetParams(params)
}

// Hijacked reports whether any remote write has ever succeeded.
func (c *Cluster) Hijacked() bool { return c.hijacked }
