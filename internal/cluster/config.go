// Package cluster is AggregaThor's distributed deployment (the artifact
// appendix's "Distributed deployment" path): a parameter server and n worker
// goroutines speaking the transport wire protocol over real localhost
// sockets — TCPCluster over streams, UDPCluster over lossy datagrams — driven
// round by round by the one ps round engine.
package cluster

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"aggregathor/internal/attack"
	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/transport"
)

// UDPClusterConfig is the one description of a socket deployment — one
// parameter server and n worker goroutines speaking the transport wire
// protocol over real sockets — that validation, the round engine and the
// worker nodes read. TCPClusterConfig is the same struct: a TCP deployment is
// the same description with the datagram axes zero (NewTCPCluster rejects them
// otherwise), which plans as a loss-free link.
type UDPClusterConfig struct {
	// Addr is the server bind address ("127.0.0.1:0" picks a free port): the
	// TCP listener, or the UDP gradient endpoint (each datagram worker
	// additionally binds its own model endpoint on a kernel-chosen port).
	Addr string
	// ModelFactory builds the network replicas: one for the server, one per
	// worker.
	ModelFactory func() *nn.Network
	// Workers is n; each worker draws Batch-sized mini-batches from Train.
	Workers int
	Batch   int
	Train   *data.Dataset
	// GAR aggregates each round and Optimizer applies the result.
	GAR       gar.GAR
	Optimizer opt.Optimizer
	// Codec selects the wire coordinate width (zero value = lossless
	// float64, which is what the bit-for-bit parity guarantee needs).
	Codec transport.Codec
	// RoundTimeout bounds the collection phase (the paper's fix for
	// TensorFlow waiting indefinitely on unresponsive nodes). Zero means
	// 30 seconds. Only a genuinely unresponsive worker ever pays it.
	RoundTimeout time.Duration
	// Byzantine maps worker ids to attack names. A Byzantine worker forges
	// its wire submission; omniscient attacks are honoured by recomputing
	// the honest gradients from the shared run seed (see clusterWorker).
	Byzantine map[int]string
	// Unresponsive marks worker ids that receive broadcasts but never
	// submit a gradient — the paper's unresponsive node, which vanilla
	// TensorFlow waits on forever and AggregaThor bounds with the round
	// timeout.
	Unresponsive map[int]bool
	// Seed is the run seed. Sampler, attack, schedule and recoup randomness
	// all derive from it through the shared ps formulas, so identical
	// configurations produce identical gradient streams over any backend.
	Seed int64
	// L1, L2 are the regularisation weights.
	L1, L2 float64
	// Recoup selects the policy for gradient data the round ends without —
	// a slot that missed the deadline, or coordinates lost in flight:
	// DropGradient (default) discards the gradient, FillNaN marks the
	// missing coordinates NaN (the GAR must contain them), FillRandom
	// substitutes seed-derived random values — the AggregaThor way. All
	// three are deterministic functions of (Seed, step, worker id).
	Recoup transport.RecoupPolicy
	// Async configures asynchronous bounded-staleness rounds (ps.SlowSeed).
	Async ps.AsyncConfig
	// Churn configures the deterministic worker crash/rejoin schedule
	// (ps.ChurnSeed): a scheduled worker receives the broadcast, tears its
	// sockets down without submitting, and comes back through the backoff
	// dialer at its scheduled rejoin round. Which axes compose is
	// ps.RoundConfig.Validate's business.
	Churn ps.ChurnConfig

	// The datagram axes: the lossyMPI deployment of §3.3, every gradient
	// chunked into MTU-sized packets and an artificial per-packet drop
	// schedule standing in for the paper's tc-based loss injection. Lost
	// coordinates are recouped by Recoup and absorbed by the
	// Byzantine-resilient GAR upstairs, which is the paper's headline
	// systems bet.

	// WorkerBindHost, when set, is the host each worker binds its model
	// endpoint on. When empty the host is derived from the worker's
	// gradient-dial interface toward Addr — the interface that can reach the
	// server can be reached by it.
	WorkerBindHost string
	// MTU is the datagram payload budget; zero means transport.DefaultMTU.
	MTU int
	// DropRate is the per-packet artificial loss probability in [0, 1) on
	// worker→server gradient datagrams. Which packets drop is keyed on
	// (Seed, step, worker), never on a per-sender stream, and planned at
	// BOTH endpoints — so the server knows exactly which packets will never
	// arrive and recoups a slot the moment its surviving packets are all
	// in: lossy rounds are deterministic and deadline-free by construction.
	DropRate float64
	// ModelDropRate is the same on server→worker model broadcasts —
	// footnote 12's unreliable model channel: the server drops before the
	// write, and the worker settles a torn broadcast the moment its
	// scheduled survivors are in.
	ModelDropRate float64
	// StaleModels selects the worker-side policy for a torn model broadcast
	// (ps.Link.StaleModels): false consumes the surviving packets and
	// submits nothing — the server, evaluating the same schedule, recoups the
	// slot per Recoup — true trains on the last complete model and submits a
	// gradient tagged with that stale step, which the server accepts into the
	// current round.
	StaleModels bool
}

// TCPClusterConfig describes a TCPCluster: a UDPClusterConfig whose datagram
// axes are zero.
type TCPClusterConfig = UDPClusterConfig

// validate applies the defaults (RoundTimeout 30 s, MTU
// transport.DefaultMTU) and checks what is the socket layer's own — required
// fields, sizes, the datagram budget, that the GAR fits the cluster and the
// attack names resolve — so a misconfigured deployment fails before any
// socket is opened. How the scheduled axes compose is not checked here:
// ps.NewEngine validates the RoundConfig this description maps onto.
func (sc *UDPClusterConfig) validate() error {
	if sc.ModelFactory == nil || sc.GAR == nil || sc.Optimizer == nil || sc.Train == nil {
		return errors.New("cluster: config missing required field")
	}
	if sc.Workers <= 0 || sc.Batch <= 0 {
		return fmt.Errorf("cluster: bad sizes workers=%d batch=%d", sc.Workers, sc.Batch)
	}
	if sc.MTU == 0 {
		sc.MTU = transport.DefaultMTU
	}
	// Lower bound first: an MTU below header+one-coordinate would make
	// CoordsPerPacket clamp to 1 and every datagram silently exceed the
	// configured budget.
	if sc.MTU < sc.Codec.MinMTU() || sc.MTU > 65507 {
		return fmt.Errorf("cluster: mtu %d outside [%d, 65507]", sc.MTU, sc.Codec.MinMTU())
	}
	if sc.RoundTimeout <= 0 {
		sc.RoundTimeout = 30 * time.Second
	}
	if info, ok := sc.GAR.(gar.ByzantineInfo); ok && sc.Workers < info.MinWorkers() {
		return fmt.Errorf("cluster: %s(f=%d) needs %d workers, got %d",
			sc.GAR.Name(), info.F(), info.MinWorkers(), sc.Workers)
	}
	// In id order, so which violation is reported first — an error string
	// that can reach campaign JSON — is deterministic.
	for _, id := range slices.Sorted(maps.Keys(sc.Byzantine)) {
		if id < 0 || id >= sc.Workers {
			return fmt.Errorf("cluster: Byzantine worker id %d outside [0, %d)", id, sc.Workers)
		}
		if _, err := attack.New(sc.Byzantine[id]); err != nil {
			return fmt.Errorf("cluster: worker %d: %w", id, err)
		}
	}
	return nil
}

// round maps a validated socket description onto the round description the
// engine and every worker plan from — the socket layer's one translation.
func (sc *UDPClusterConfig) round() ps.RoundConfig {
	return ps.RoundConfig{
		Workers: sc.Workers, Seed: sc.Seed, Async: sc.Async, Churn: sc.Churn, Recoup: sc.Recoup,
		Link: ps.Link{
			Codec: sc.Codec, MTU: sc.MTU, GradLoss: sc.DropRate, ModelLoss: sc.ModelDropRate,
			StaleModels: sc.StaleModels,
		},
		Unresponsive: slices.Sorted(maps.Keys(sc.Unresponsive)),
		Informed:     attack.FirstInformed(sc.Byzantine),
	}
}

// socketServer is the half of a socket cluster that is the same on both
// transports: the validated deployment description and the round description
// it maps onto, the round engine (whose Server supplies Model, Params and
// StepCount), the worker goroutines' bookkeeping and the Start → Step →
// Close lifecycle.
type socketServer struct {
	*ps.Server
	cfg        UDPClusterConfig
	rounds     ps.RoundConfig
	eng        *ps.Engine
	workerWG   sync.WaitGroup
	workerErrs chan error
	started    bool
	closed     bool
}

// setup validates the deployment and builds its engine.
func (s *socketServer) setup(cfg UDPClusterConfig) error {
	s.cfg = cfg
	if err := s.cfg.validate(); err != nil {
		return err
	}
	s.rounds = s.cfg.round()
	byzantine := make([]bool, cfg.Workers)
	for _, id := range slices.Sorted(maps.Keys(cfg.Byzantine)) {
		byzantine[id] = true
	}
	eng, err := ps.NewEngine(ps.EngineConfig{
		RoundConfig: s.rounds, Model: cfg.ModelFactory(), GAR: cfg.GAR, Optimizer: cfg.Optimizer,
		L1: cfg.L1, L2: cfg.L2, Byzantine: byzantine,
	})
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	s.eng, s.Server = eng, &eng.Server
	s.workerErrs = make(chan error, cfg.Workers)
	return nil
}

// canStart and canStep enforce the lifecycle: Start exactly once, Step only
// between Start and Close.
func (s *socketServer) canStart() error {
	if s.started {
		return errors.New("cluster: Start called twice")
	}
	if s.closed {
		return errors.New("cluster: Start after Close")
	}
	return nil
}

func (s *socketServer) canStep() error {
	if !s.started {
		return errors.New("cluster: Step before Start")
	}
	if s.closed {
		return errors.New("cluster: Step after Close")
	}
	return nil
}
