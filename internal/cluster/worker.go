package cluster

import (
	"math/rand"

	"aggregathor/internal/attack"
	"aggregathor/internal/data"
	"aggregathor/internal/nn"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// clusterWorker is one worker node's state: its model replica, seeded
// sampler, attack RNG, its own slot's plan and — for Byzantine workers — the
// omniscient oracle.
type clusterWorker struct {
	id      int
	cfg     *UDPClusterConfig
	replica *nn.Network
	sampler data.Sampler
	rng     *rand.Rand
	atk     attack.Attack
	sub     transport.GradientMsg // the submission handed out, rewritten by the next

	// plan is the worker's half of "both endpoints, one function": the same
	// ps.Planner the server's engine runs over all n slots, here over this
	// worker's own, from the same round description. The worker loops read
	// it — when to crash and come back, which model to train on, which
	// packets the link eats — and evaluate no schedule themselves. models
	// holds the broadcasts a later step's plan can still tag.
	plan   *ps.Planner
	models *ps.Models

	// Omniscient oracle. The paper's threat model (§3.1) gives colluders
	// every correct gradient before the server sees them (arbitrarily fast
	// channels). Over real sockets there is nothing in flight to observe,
	// so the adversary recomputes them instead: knowing the run seed, the
	// dataset and the model, it replicates every honest worker's sampler
	// and derives the exact gradients the server is about to receive. This
	// keeps informed attacks (omniscient, little-is-enough, ...) available
	// over the wire and bit-identical to the in-process backend. Built only
	// for attacks that read Context.Honest: a blind attack (reversed,
	// random, non-finite) has no oracle and recomputes nothing.
	peers        []int
	peerReplica  *nn.Network
	peerSamplers map[int]data.Sampler
}

// newClusterWorker builds worker id's node from the deployment and round
// descriptions shared by both socket backends, so the gradient streams — and
// therefore the trajectories — are identical across transports.
func newClusterWorker(id int, spec *UDPClusterConfig, rounds *ps.RoundConfig) (*clusterWorker, error) {
	w := &clusterWorker{
		id:      id,
		cfg:     spec,
		replica: spec.ModelFactory(),
		sampler: data.NewUniformSampler(spec.Train, ps.SamplerSeed(spec.Seed, id)),
		rng:     rand.New(rand.NewSource(ps.AttackSeed(spec.Seed, id))),
	}
	w.plan = ps.NewPlanner(rounds, w.replica.NumParams(), id, 1)
	w.models = ps.NewModels(rounds, w.replica.NumParams())
	if name, ok := spec.Byzantine[id]; ok {
		atk, err := attack.New(name)
		if err != nil {
			return nil, err
		}
		w.atk = atk
		if attack.NeedsHonest(atk) {
			w.peerReplica = spec.ModelFactory()
			w.peerSamplers = map[int]data.Sampler{}
			for p := 0; p < spec.Workers; p++ {
				if _, byz := spec.Byzantine[p]; byz || spec.Unresponsive[p] {
					continue
				}
				w.peers = append(w.peers, p)
				w.peerSamplers[p] = data.NewUniformSampler(spec.Train, ps.SamplerSeed(spec.Seed, p))
			}
		}
	}
	return w, nil
}

// submission computes the worker's wire submission for one broadcast: the
// honest gradient and loss, with Byzantine workers forging through the same
// attack.Context the in-process backend builds. The honest gradient is the
// replica's own store, borrowed: the sender has written or encoded it by the
// time the next broadcast is trained on, and the message is the worker's one,
// valid as long. The oracle's gradients are several of one replica alive at
// once, so each is a copy.
func (w *clusterWorker) submission(model *transport.ModelMsg) *transport.GradientMsg {
	w.replica.SetParamsVector(model.Params) // nothing to do when the broadcast was received into the replica
	x, y := w.sampler.Sample(w.cfg.Batch)
	loss, grad := w.replica.GradientView(x, y)
	if w.atk != nil {
		var honest []tensor.Vector
		if len(w.peers) > 0 {
			w.peerReplica.SetParamsVector(model.Params)
			for _, p := range w.peers {
				px, py := w.peerSamplers[p].Sample(w.cfg.Batch)
				_, pg := w.peerReplica.Gradient(px, py)
				honest = append(honest, pg)
			}
		}
		grad = w.atk.Forge(&attack.Context{
			Step:   model.Step,
			Honest: honest,
			Own:    grad,
			N:      w.cfg.Workers,
			F:      len(w.cfg.Byzantine),
			Dim:    grad.Dim(),
			Rng:    w.rng,
		})
	}
	w.sub = transport.GradientMsg{Worker: w.id, Step: model.Step, Loss: loss, Grad: grad}
	return &w.sub
}

// roundSubmission answers one settled broadcast as the step's plan says:
// on the broadcast model when the tag is fresh, on the model retained for an
// older tag (the slow schedule, or a torn broadcast under stale recoup) —
// submitting with that tag, exactly the one the server's plan expects — and
// with nil when the worker sits the round out. params is nil unless the
// broadcast arrived complete; a worker that does not hold the model its tag
// names (a genuinely lost datagram) submits nothing and lets the round
// deadline absorb it.
func (w *clusterWorker) roundSubmission(step int, params tensor.Vector, plan *ps.SlotPlan) *transport.GradientMsg {
	if params != nil {
		w.models.Retain(step, params)
	}
	if plan.Tag != step {
		params = w.models.At(plan.Tag)
	}
	if params == nil {
		return nil
	}
	return w.submission(&transport.ModelMsg{Step: plan.Tag, Params: params})
}
