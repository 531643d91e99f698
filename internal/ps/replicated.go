package ps

import (
	"errors"
	"fmt"
	"math/rand"

	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/tensor"
)

// ReplicatedCluster implements the paper's §6 proposal for removing the
// trusted-server assumption: the parameter server is state-machine
// replicated. Each correct replica is one round engine — its own model, its
// own optimizer, the same deterministic GAR; each step every replica proposes
// its model to the workers, and a worker adopts the value endorsed by more
// than 2/3 of the replicas ("use the model that has been sent by 2/3 of the
// replicas"). The workers then run the ordinary in-process round on the
// agreed model and every correct replica settles the same submissions, so
// correct replicas always propose bit-identical models and a Byzantine
// minority of replicas cannot steer the workers. Only the proposals and the
// vote are this type's own; everything a round honours (attacks, silent
// workers, lossy links, regularisation, skip gates) is the Cluster's.
type ReplicatedCluster struct {
	*Server              // the first correct replica's model and parameters
	cl         *Cluster  // the workers, and one engine per correct replica
	replicas   []*Engine // by replica id; nil for a Byzantine one
	byzReplica map[int]bool
	// The vote's scratch: each replica's proposal fingerprint, by replica
	// id, and the Byzantine replicas' one garbage buffer, allocated at the
	// first lie.
	prints  []uint64
	garbage tensor.Vector
	rng     *rand.Rand
}

// ReplicatedConfig assembles a replicated-server deployment.
type ReplicatedConfig struct {
	// ModelFactory builds network replicas (servers and workers).
	ModelFactory func() *nn.Network
	// ServerReplicas is the replication degree R; tolerating b Byzantine
	// replicas requires R ≥ 3b+1.
	ServerReplicas int
	// ByzantineReplicas lists server replica ids that propose garbage
	// models every step.
	ByzantineReplicas []int
	// Workers lists the n workers, as in Config.
	Workers []WorkerConfig
	// GAR aggregates worker gradients — identical on every replica.
	GAR gar.GAR
	// OptimizerFactory builds one optimizer per replica (each replica
	// carries its own deterministic optimizer state).
	OptimizerFactory func() opt.Optimizer
	// Batch is the per-worker mini-batch size.
	Batch int
	// L1, L2 are the regularisation weights.
	L1, L2 float64
	// Seed drives Byzantine-replica noise.
	Seed int64
}

// ErrNoModelQuorum is returned when no model value reaches the 2/3 quorum —
// more Byzantine replicas than the deployment tolerates.
var ErrNoModelQuorum = errors.New("ps: no 2/3 model quorum among server replicas")

// ByzantineReplicas returns the set of lying replica ids, or an error when
// the 2/3 vote among `replicas` servers cannot absorb it: tolerating b
// Byzantine replicas requires R ≥ 3b+1.
func ByzantineReplicas(replicas int, ids []int) (map[int]bool, error) {
	byz := map[int]bool{}
	for _, r := range ids {
		if r < 0 || r >= replicas {
			return nil, fmt.Errorf("ps: byzantine replica %d outside [0, %d)", r, replicas)
		}
		byz[r] = true
	}
	if 3*len(byz) >= replicas {
		return nil, fmt.Errorf("ps: %d Byzantine replicas need R >= %d, got %d", len(byz), 3*len(byz)+1, replicas)
	}
	return byz, nil
}

// NewReplicated validates and assembles the replicated deployment.
func NewReplicated(cfg ReplicatedConfig) (*ReplicatedCluster, error) {
	if cfg.OptimizerFactory == nil {
		return nil, errors.New("ps: OptimizerFactory is required")
	}
	byz, err := ByzantineReplicas(cfg.ServerReplicas, cfg.ByzantineReplicas)
	if err != nil {
		return nil, err
	}
	c := &ReplicatedCluster{replicas: make([]*Engine, cfg.ServerReplicas), byzReplica: byz,
		prints: make([]uint64, cfg.ServerReplicas), rng: rand.New(rand.NewSource(cfg.Seed))}
	for r := range c.replicas {
		if byz[r] {
			continue // it lies anyway: it needs no state
		}
		server := Config{
			ModelFactory: cfg.ModelFactory, Workers: cfg.Workers, GAR: cfg.GAR, Optimizer: cfg.OptimizerFactory(),
			Batch: cfg.Batch, L1: cfg.L1, L2: cfg.L2, Seed: cfg.Seed,
		}
		if c.cl == nil {
			// The first correct replica brings the workers with it.
			cl, err := New(server)
			if err != nil {
				return nil, err
			}
			c.Server, c.cl, c.replicas[r] = cl.Server, cl, cl.engines[0]
			continue
		}
		eng, err := server.engine()
		if err != nil {
			return nil, err
		}
		c.cl.engines, c.replicas[r] = append(c.cl.engines, eng), eng
	}
	return c, nil
}

// Step runs one synchronous round of the replicated deployment. As with
// Cluster.Step, the result's Slots is valid until the next Step.
func (c *ReplicatedCluster) Step() (*StepResult, error) {
	// Proposal phase: every replica broadcasts its model; Byzantine
	// replicas broadcast fresh garbage.
	c.rng.Seed(c.cl.cfg.Seed ^ int64(c.step)*7919)
	for i, rep := range c.replicas {
		if !c.byzReplica[i] {
			c.prints[i] = rep.params.Fingerprint()
			continue
		}
		if c.garbage == nil {
			c.garbage = tensor.NewVector(c.params.Dim())
		}
		for j := range c.garbage {
			c.garbage[j] = c.rng.NormFloat64() * 1e6
		}
		c.prints[i] = c.garbage.Fingerprint()
	}

	// Vote phase: workers adopt the value proposed by > 2/3 of replicas,
	// the first replica's to propose it. At most one value can reach that
	// quorum, and never a garbage one: ByzantineReplicas keeps 3b < R.
	quorum := 2*len(c.replicas)/3 + 1
	var agreed tensor.Vector
	for i, fp := range c.prints {
		votes := 0
		for _, other := range c.prints {
			if other == fp {
				votes++
			}
		}
		if votes >= quorum && !c.byzReplica[i] {
			agreed = c.replicas[i].params
			break
		}
	}
	if agreed == nil {
		return nil, ErrNoModelQuorum
	}
	// agreed aliases a correct replica's live parameters: the workers are
	// done reading it before any replica descends.
	return c.cl.round(agreed)
}

// SetParams overwrites every correct replica's parameters (checkpoint
// restore / warm start).
func (c *ReplicatedCluster) SetParams(v tensor.Vector) error {
	for _, e := range c.cl.engines {
		if err := e.SetParams(v); err != nil {
			return err
		}
	}
	return nil
}

// CorrectReplicasAgree reports whether all correct replicas hold
// bit-identical parameters (the state-machine-replication invariant).
func (c *ReplicatedCluster) CorrectReplicasAgree() bool {
	want := c.params.Fingerprint()
	for _, e := range c.cl.engines[1:] {
		if e.params.Fingerprint() != want {
			return false
		}
	}
	return true
}
