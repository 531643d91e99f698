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
// sampler, attack RNG, and — for Byzantine workers — the omniscient oracle.
type clusterWorker struct {
	id      int
	cfg     *socketConfig
	replica *nn.Network
	sampler data.Sampler
	rng     *rand.Rand
	atk     attack.Attack

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

	// hist retains the last τ+1 complete model broadcasts so a round the
	// slow schedule marks stale can train on the model from lag steps ago —
	// the socket-side twin of the in-process Cluster's history ring.
	hist []tensor.Vector
}

// newClusterWorker builds worker id's node from the deployment description
// shared by both socket backends, so the gradient streams — and therefore
// the trajectories — are identical across transports.
func newClusterWorker(id int, spec *socketConfig) (*clusterWorker, error) {
	w := &clusterWorker{
		id:      id,
		cfg:     spec,
		replica: spec.ModelFactory(),
		sampler: data.NewUniformSampler(spec.Train, ps.SamplerSeed(spec.Seed, id)),
		rng:     rand.New(rand.NewSource(ps.AttackSeed(spec.Seed, id))),
	}
	if spec.Async.Enabled() && spec.Async.Staleness > 0 {
		w.hist = make([]tensor.Vector, spec.Async.Staleness+1)
	}
	if name, ok := spec.Byzantine[id]; ok {
		atk, err := attack.New(name)
		if err != nil {
			return nil, err
		}
		w.atk = atk
		if inf, ok := atk.(attack.Informed); ok && inf.RequiresHonest() {
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
// attack.Context the in-process backend builds.
func (w *clusterWorker) submission(model *transport.ModelMsg) *transport.GradientMsg {
	w.replica.SetParamsVector(model.Params)
	x, y := w.sampler.Sample(w.cfg.Batch)
	loss, grad := w.replica.Gradient(x, y)
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
	return &transport.GradientMsg{Worker: w.id, Step: model.Step, Loss: loss, Grad: grad}
}

// roundSubmission resolves the asynchronous slow-worker schedule for one
// model broadcast and computes the wire submission: a fresh worker trains on
// the broadcast model, a scheduled-slow worker on the model it retained lag
// steps ago (submitting with that older step tag, which is exactly the tag
// the server's schedule evaluation expects), and a worker whose scheduled lag
// breaches the staleness bound returns nil — it sits the round out entirely,
// so the server never waits for the slot. Without an async configuration this
// is a plain submission, byte-identical to the lockstep path.
func (w *clusterWorker) roundSubmission(model *transport.ModelMsg) *transport.GradientMsg {
	if w.hist != nil {
		w.hist[model.Step%len(w.hist)] = model.Params.Clone()
	}
	if !w.cfg.Async.Enabled() {
		return w.submission(model)
	}
	tag := w.cfg.Async.ExpectedTag(w.cfg.Seed, model.Step, w.id)
	switch {
	case tag < 0:
		return nil
	case tag == model.Step:
		return w.submission(model)
	default:
		return w.submission(&transport.ModelMsg{Step: tag, Params: w.hist[tag%len(w.hist)]})
	}
}
