package cluster

import (
	"fmt"
	"math/rand"
	"time"

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
	forged  tensor.Vector         // the forgery buffer (attack.Context.Dst), allocated at the first forge
	ctx     attack.Context        // the forge's context, rewritten every round: a fresh one escapes through Attack.Forge
	sub     transport.GradientMsg // the submission handed out, rewritten by the next

	// plan is the worker's half of "both endpoints, one function": the same
	// ps.Planner the server's engine runs over all n slots, here over this
	// worker's own, from the same round description. The worker loop reads
	// it — when to crash and come back, which model to train on, which
	// packets the link eats — and evaluates no schedule itself. models
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
	// random, non-finite) has no oracle and recomputes nothing. The oracle
	// computes every peer's gradient on one replica, which trains on the
	// worker's own model (nn.Network.TrainOn: no store of its own), and
	// copies each out of that replica's gradient store into the peer's kept
	// buffer (honest[i] for peers[i], allocated at its first round), so a
	// warm round allocates nothing.
	peers        []int
	peerReplica  *nn.Network
	peerSamplers []data.Sampler // peerSamplers[i] draws peers[i]'s batches
	honest       []tensor.Vector
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
	w.models = ps.NewModels(rounds)
	if name, ok := spec.Byzantine[id]; ok {
		atk, err := attack.New(name)
		if err != nil {
			return nil, err
		}
		w.atk = atk
		if attack.NeedsHonest(atk) {
			w.peerReplica = spec.ModelFactory()
			for p := 0; p < spec.Workers; p++ {
				if _, byz := spec.Byzantine[p]; byz || spec.Unresponsive[p] {
					continue
				}
				w.peers = append(w.peers, p)
				w.peerSamplers = append(w.peerSamplers, data.NewUniformSampler(spec.Train, ps.SamplerSeed(spec.Seed, p)))
			}
			w.honest = make([]tensor.Vector, len(w.peers))
		}
	}
	return w, nil
}

// submission computes the worker's wire submission for one broadcast: the
// honest gradient and loss, with Byzantine workers forging through the same
// attack.Context the in-process backend builds. The replica and the oracle
// train on model.Params itself, which nothing writes until the submission is
// sent (the broadcast buffer, or a retained model). The honest gradient is the
// replica's own store, borrowed: the sender has written or encoded it by the
// time the next broadcast is trained on, and the message is the worker's one,
// valid as long — and so is a forgery, written into the worker's one forged
// buffer. The oracle's gradients are several of one replica alive at once,
// so each is copied into its peer's kept buffer.
func (w *clusterWorker) submission(model *transport.ModelMsg) *transport.GradientMsg {
	w.replica.TrainOn(model.Params) // nothing to do when it is the vector bound last round
	x, y := w.sampler.Sample(w.cfg.Batch)
	loss, grad := w.replica.GradientView(x, y)
	if w.atk != nil {
		if len(w.peers) > 0 {
			w.peerReplica.TrainOn(model.Params)
			for i, s := range w.peerSamplers {
				px, py := s.Sample(w.cfg.Batch)
				_, pg := w.peerReplica.GradientView(px, py)
				if w.honest[i] == nil {
					w.honest[i] = tensor.NewVector(pg.Dim())
				}
				copy(w.honest[i], pg)
			}
		}
		if w.forged == nil {
			w.forged = tensor.NewVector(grad.Dim())
		}
		w.ctx = attack.Context{
			Step:   model.Step,
			Honest: w.honest,
			Own:    grad,
			N:      w.cfg.Workers,
			F:      len(w.cfg.Byzantine),
			Dim:    grad.Dim(),
			Rng:    w.rng,
			Dst:    w.forged,
		}
		grad = w.atk.Forge(&w.ctx)
	}
	w.sub = transport.GradientMsg{Worker: w.id, Step: model.Step, Loss: loss, Grad: grad}
	return &w.sub
}

// workerLink is a socket worker's transport: what the one worker loop (run)
// receives on and sends through. The link owns the uplink it dials.
type workerLink interface {
	// next receives the next settled broadcast into params and returns its
	// step and model, nil when the broadcast arrived torn or lost. An error
	// means the server hung up.
	next(params tensor.Vector) (step int, model tensor.Vector, err error)
	// crash tears the uplink down without a goodbye, ready for the rejoin round.
	crash(rejoin int) error
	// send puts a submission on the wire, less the packets uplink drops.
	send(sub *transport.GradientMsg, uplink []bool) error
	close()
}

// run is the socket worker's main loop over either transport: at each
// settled broadcast it does what its slot's plan says, until the server
// hangs up.
func (w *clusterWorker) run(link workerLink) error {
	defer link.close()
	// The replica's own parameter store is the receive buffer: a broadcast
	// lands where the forward pass reads it. A round tagged older trains the
	// replica on the retained model instead, and the next fresh one binds it
	// back here. A failed receive may leave the buffer torn, and the worker
	// exits without training on it.
	params := w.replica.Params()
	for {
		step, model, err := link.next(params)
		if err != nil {
			return nil // server hung up: normal termination
		}
		plan := w.plan.At(step, w.id)
		switch plan.Phase {
		case ps.ChurnCrash:
			if plan.Gone() {
				return nil // rejoin budget exhausted: gone for good
			}
			if err := link.crash(plan.Rejoin); err != nil {
				return err
			}
			continue
		case ps.ChurnDown:
			continue // defensive: nothing reaches a down worker
		}
		if w.cfg.Unresponsive[w.id] {
			continue // consume the broadcast, never answer (crashed node)
		}
		// Train on the model the plan's tag names — the broadcast when the tag
		// is fresh, the one retained for an older tag (the slow schedule, or a
		// torn broadcast under stale recoup) — and submit with that tag,
		// exactly the one the server's plan expects. A worker that does not
		// hold the model its tag names (scheduled too-stale, or a genuinely
		// lost datagram) sits the round out; the server recoups the slot.
		if model != nil {
			w.models.Retain(step, model)
		}
		if plan.Tag != step {
			model = w.models.At(plan.Tag)
		}
		if model == nil {
			continue
		}
		if err := link.send(w.submission(&transport.ModelMsg{Step: plan.Tag, Params: model}), plan.Uplink); err != nil {
			return err
		}
	}
}

// The bounded backoff ladder every worker dials its uplink through, at
// startup and on every rejoin alike: a deterministic doubling schedule from
// reconnectBaseDelay, capped at reconnectMaxDelay, for at most
// reconnectMaxAttempts dials. On the scheduled path the first dial succeeds
// (the server's listener outlives every scheduled downtime), so the ladder
// only pays out when something is genuinely wrong — and then it terminates
// loudly instead of retrying forever. Nothing here draws randomness.
const (
	reconnectMaxAttempts = 5
	reconnectBaseDelay   = 10 * time.Millisecond
	reconnectMaxDelay    = 500 * time.Millisecond
)

// dialWithBackoff dials through the bounded backoff ladder and reports how
// many attempts the connect took — the count a TCP hello carries to the
// server.
func dialWithBackoff[C any](what, addr string, dial func() (C, error)) (C, int, error) {
	var lastErr error
	delay := reconnectBaseDelay
	for attempt := 1; attempt <= reconnectMaxAttempts; attempt++ {
		conn, err := dial()
		if err == nil {
			return conn, attempt, nil
		}
		lastErr = err
		if attempt < reconnectMaxAttempts {
			reconnectPause(delay)
			delay = min(2*delay, reconnectMaxDelay)
		}
	}
	var none C
	return none, reconnectMaxAttempts, fmt.Errorf("cluster: reconnect %s to %s failed after %d attempts (backoff %v doubling to %v): %w",
		what, addr, reconnectMaxAttempts, reconnectBaseDelay, reconnectMaxDelay, lastErr)
}
