package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"aggregathor/internal/attack"
	"aggregathor/internal/gar"
	"aggregathor/internal/ps"
	"aggregathor/internal/transport"
)

// socketConfig is the one description of a socket deployment that
// validation, the round engine and the worker nodes read. The datagram config
// is the superset — a TCP deployment is the same description with the
// datagram axes zero, which validates (and plans) as a loss-free link — so
// NewTCPCluster maps its fields onto it and NewUDPCluster uses its own.
type socketConfig = UDPClusterConfig

// validate applies the defaults (RoundTimeout 30 s, MTU
// transport.DefaultMTU) and checks the configuration, so a misconfigured
// deployment fails before any socket is opened. It is the cluster layer's
// single copy of every cross-axis rule: each forbidden pair wraps its ps.Err*
// sentinel.
func (sc *socketConfig) validate() error {
	if sc.ModelFactory == nil || sc.GAR == nil || sc.Optimizer == nil || sc.Train == nil {
		return errors.New("cluster: config missing required field")
	}
	if sc.Workers <= 0 || sc.Batch <= 0 {
		return fmt.Errorf("cluster: bad sizes workers=%d batch=%d", sc.Workers, sc.Batch)
	}
	if sc.DropRate < 0 || sc.DropRate >= 1 {
		return fmt.Errorf("cluster: drop rate %v out of [0,1)", sc.DropRate)
	}
	if sc.ModelDropRate < 0 || sc.ModelDropRate >= 1 {
		return fmt.Errorf("cluster: model drop rate %v out of [0,1)", sc.ModelDropRate)
	}
	if sc.ModelRecoup != ModelRecoupSkip && sc.ModelRecoup != ModelRecoupStale {
		return fmt.Errorf("cluster: unknown model recoup policy %v", sc.ModelRecoup)
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
	if err := sc.Async.Validate(sc.Workers); err != nil {
		return err
	}
	if err := sc.Churn.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	for _, id := range sortedIDs(sc.Byzantine) {
		name := sc.Byzantine[id]
		if id < 0 || id >= sc.Workers {
			return fmt.Errorf("cluster: Byzantine worker id %d outside [0, %d)", id, sc.Workers)
		}
		atk, err := attack.New(name)
		if err != nil {
			return fmt.Errorf("cluster: worker %d: %w", id, err)
		}
		// An informed attack recomputes the honest workers' gradients from
		// the shared seed, which assumes every honest peer samples once per
		// round on the broadcast model. Torn broadcasts, a slow schedule and
		// a churn schedule each break that oracle — the attack would
		// silently forge from wrong gradients — so each is rejected.
		if inf, ok := atk.(attack.Informed); !ok || !inf.RequiresHonest() {
			continue
		}
		switch {
		case sc.ModelDropRate > 0:
			return fmt.Errorf("cluster: informed attack %q (ModelDropRate %v): %w", name, sc.ModelDropRate, ps.ErrInformedModelLoss)
		case sc.Async.SlowRate > 0:
			return fmt.Errorf("cluster: attack %q on worker %d (slowRate %v): %w", name, id, sc.Async.SlowRate, ps.ErrInformedSlow)
		case sc.Churn.Enabled():
			return fmt.Errorf("cluster: attack %q on worker %d (churn rate %v): %w", name, id, sc.Churn.Rate, ps.ErrInformedChurn)
		}
	}
	unresponsive := sortedIDs(sc.Unresponsive)
	for _, id := range unresponsive {
		if id < 0 || id >= sc.Workers {
			return fmt.Errorf("cluster: unresponsive worker id %d outside [0, %d)", id, sc.Workers)
		}
	}
	// Deadline-free settlement needs a missing slot to mean exactly one
	// thing, so the schedules that empty slots do not compose.
	if sc.Async.Enabled() && sc.ModelDropRate > 0 {
		return fmt.Errorf("cluster: %w (ModelDropRate %v)", ps.ErrAsyncModelLoss, sc.ModelDropRate)
	}
	if sc.Churn.Enabled() {
		switch {
		case sc.Async.Enabled():
			return fmt.Errorf("cluster: %w (quorum %d with churn rate %v)",
				ps.ErrChurnAsync, sc.Async.EffectiveQuorum(sc.Workers), sc.Churn.Rate)
		case sc.ModelDropRate > 0:
			return fmt.Errorf("cluster: %w (ModelDropRate %v with churn rate %v)",
				ps.ErrChurnModelLoss, sc.ModelDropRate, sc.Churn.Rate)
		case len(unresponsive) > 0:
			return fmt.Errorf("cluster: unresponsive worker %d cannot follow a churn schedule (rate %v): it would neither crash nor rejoin on cue",
				unresponsive[0], sc.Churn.Rate)
		}
	}
	return nil
}

// socketServer is the half of a socket cluster that is the same on both
// transports: the validated deployment description, the round engine (whose
// Server supplies Model, Params and StepCount), the worker goroutines'
// bookkeeping and the Start → Step → Close lifecycle.
type socketServer struct {
	*ps.Server
	cfg        socketConfig
	eng        *ps.Engine
	workerWG   sync.WaitGroup
	workerErrs chan error
	started    bool
	closed     bool
}

// setup validates the deployment and builds its engine.
func (s *socketServer) setup(cfg socketConfig) error {
	s.cfg = cfg
	if err := s.cfg.validate(); err != nil {
		return err
	}
	s.eng = s.cfg.engine()
	s.Server = &s.eng.Server
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

// engine builds the deployment's round engine.
func (sc *socketConfig) engine() *ps.Engine {
	byzantine := make([]bool, sc.Workers)
	for _, id := range sortedIDs(sc.Byzantine) {
		byzantine[id] = true
	}
	return ps.NewEngine(ps.EngineConfig{
		Model: sc.ModelFactory(), Workers: sc.Workers, GAR: sc.GAR, Optimizer: sc.Optimizer,
		L1: sc.L1, L2: sc.L2, Seed: sc.Seed, Byzantine: byzantine,
		Async: sc.Async, Churn: sc.Churn, Recoup: sc.Recoup,
		Link: ps.Link{
			Codec: sc.Codec, MTU: sc.MTU, GradLoss: sc.DropRate, ModelLoss: sc.ModelDropRate,
			StaleModels: sc.ModelRecoup == ModelRecoupStale,
		},
	})
}
