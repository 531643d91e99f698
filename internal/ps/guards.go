package ps

import (
	"errors"
	"fmt"

	"aggregathor/internal/transport"
)

// One description, validated once. Every deployment — the in-process
// Cluster, both socket clusters, and through them core and the scenario
// engine — describes its rounds as a RoundConfig, and RoundConfig.Validate
// is the only place a rule about how two axes compose lives: each of the six
// sentinels below is wrapped at exactly one site, there. NewEngine validates
// what it is handed, so no backend plans a round from an unchecked
// description. The layers above keep only what is their own: cluster its
// socket defaults, core the rules about which backend can express which
// axis, scenario name parsing — and each maps its fields onto a RoundConfig
// in one function.

// Forbidden axis pairs. Deadline-free settlement needs a missing slot to
// mean exactly one thing, and an informed attack's honest-gradient oracle
// needs every honest peer to train once per round on the broadcast model.
var (
	// ErrAsyncModelLoss: the slow schedule and torn broadcasts are two
	// distinct staleness regimes, and an unfillable slot has to mean
	// exactly one of them.
	ErrAsyncModelLoss = errors.New("asynchronous quorum rounds are incompatible with lossy model broadcasts: the slow schedule, not torn broadcasts, decides staleness")
	// ErrChurnAsync: scheduled staleness and scheduled downtime each
	// define their own reason a slot stays empty.
	ErrChurnAsync = errors.New("worker churn is incompatible with asynchronous quorum rounds: a missing slot must mean exactly one thing")
	// ErrChurnModelLoss: a worker that misses a broadcast must be able to
	// conclude it was down, not that the broadcast tore — otherwise the two
	// schedules disagree about which round it rejoins on.
	ErrChurnModelLoss = errors.New("worker churn is incompatible with lossy model broadcasts: a skipped broadcast must mean a down worker, not a torn one")
	// ErrInformedSlow: a slow worker trains on a retained model, not the
	// broadcast one the attack recomputes gradients from.
	ErrInformedSlow = errors.New("informed attacks are incompatible with a slow-worker schedule: the honest-gradient oracle assumes every peer trained fresh")
	// ErrInformedChurn: a crashed worker's sampler stream pauses, and the
	// shared-seed oracle cannot track membership.
	ErrInformedChurn = errors.New("informed attacks are incompatible with a churn schedule: the shared-seed oracle cannot track membership")
	// ErrInformedModelLoss: each honest worker follows its own downlink
	// schedule and may train on a stale model or sit the round out.
	ErrInformedModelLoss = errors.New("informed attacks are incompatible with lossy model broadcasts: exact honest-gradient oracles need every peer on the broadcast model")
)

// RoundConfig is the plain-data description of a deployment's rounds: the
// cluster size, the run seed every schedule is keyed on, the four scheduled
// axes, and what the pair rules need to know about the workers' roles.
type RoundConfig struct {
	Workers int
	Seed    int64
	Async   AsyncConfig
	Churn   ChurnConfig
	// Recoup is the policy for coordinates and whole slots a round ends
	// without.
	Recoup transport.RecoupPolicy
	Link   Link
	// Informed names an attack in the deployment that recomputes the honest
	// workers' gradients (attack.NeedsHonest); empty when there is none.
	Informed string
	// Unresponsive lists the workers that take broadcasts and never answer.
	Unresponsive []int
}

// Validate checks every axis' range and every rule about how axes compose.
func (c *RoundConfig) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("ps: at least one worker is required, got %d", c.Workers)
	}
	if err := c.Async.Validate(c.Workers); err != nil {
		return err
	}
	if err := c.Churn.Validate(); err != nil {
		return err
	}
	if c.Link.GradLoss < 0 || c.Link.GradLoss >= 1 {
		return fmt.Errorf("ps: gradient drop rate %v out of [0, 1)", c.Link.GradLoss)
	}
	if c.Link.ModelLoss < 0 || c.Link.ModelLoss >= 1 {
		return fmt.Errorf("ps: model drop rate %v out of [0, 1)", c.Link.ModelLoss)
	}
	if c.Link.MTU <= 0 && (c.Link.GradLoss > 0 || c.Link.ModelLoss > 0) {
		return fmt.Errorf("ps: a lossy link needs an MTU to split transfers by, got %d", c.Link.MTU)
	}
	if c.Link.Slots < 0 || c.Link.Slots > c.Workers {
		return fmt.Errorf("ps: %d workers on the lossy link, outside [0, %d]", c.Link.Slots, c.Workers)
	}
	for _, id := range c.Unresponsive {
		if id < 0 || id >= c.Workers {
			return fmt.Errorf("ps: unresponsive worker id %d outside [0, %d)", id, c.Workers)
		}
	}
	async, churn, modelLoss := c.Async.Enabled(), c.Churn.Enabled(), c.Link.ModelLossEnabled()
	lossy := fmt.Sprintf("model drop rate %v, stale recoup %v", c.Link.ModelLoss, c.Link.StaleModels)
	switch {
	case async && modelLoss:
		return fmt.Errorf("ps: %w (%s)", ErrAsyncModelLoss, lossy)
	case churn && async:
		return fmt.Errorf("ps: %w (quorum %d with churn rate %v)", ErrChurnAsync, c.Async.EffectiveQuorum(c.Workers), c.Churn.Rate)
	case churn && modelLoss:
		return fmt.Errorf("ps: %w (%s with churn rate %v)", ErrChurnModelLoss, lossy, c.Churn.Rate)
	case churn && len(c.Unresponsive) > 0:
		return fmt.Errorf("ps: unresponsive worker %d cannot follow a churn schedule (rate %v): it would neither crash nor rejoin on cue",
			c.Unresponsive[0], c.Churn.Rate)
	case c.Informed == "":
	case modelLoss:
		return fmt.Errorf("ps: attack %q (%s): %w", c.Informed, lossy, ErrInformedModelLoss)
	case c.Async.SlowRate > 0:
		return fmt.Errorf("ps: attack %q (slow rate %v): %w", c.Informed, c.Async.SlowRate, ErrInformedSlow)
	case churn:
		return fmt.Errorf("ps: attack %q (churn rate %v): %w", c.Informed, c.Churn.Rate, ErrInformedChurn)
	}
	return nil
}
