package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"aggregathor/internal/ps"
	"aggregathor/internal/transport"
)

// udpWorkerIdleTimeout bounds a worker's wait for the next model broadcast.
// The normal exit path is the server closing the worker's model socket; the
// timeout is a backstop against a server that vanished without Close.
const udpWorkerIdleTimeout = time.Hour

// udpPaceBurst/udpPaceDelay rate-limit what every cluster sender puts on any
// one destination socket: after each 128 KB of datagram payload toward a
// destination the sender sleeps 1 ms so that receiver drains its kernel
// buffer. The invariant is per destination socket: a worker's gradient sender
// has one destination, and the server's model fan-out counts the bytes each
// worker endpoint was sent, not their sum over the workers. At the paper
// scale (d = 1.75M ≈ 14 MB of datagrams per transfer) an unpaced burst
// overflows any realistic SO_RCVBUF and the kernel silently discards the
// excess — the wedge the bounded broadcast wait then has to clean up. Pacing
// changes timing only, never content.
const (
	udpPaceBurst = 128 << 10
	udpPaceDelay = time.Millisecond
)

// UDPCluster is a running lossy-datagram deployment that implements
// ps.Trainer. It is the round engine's datagram adapter: it owns the sockets,
// the packet split and the pacing; every received packet goes to the round,
// which reassembles, recoups scheduled losses and decides what is still
// outstanding.
type UDPCluster struct {
	socketServer
	recv        *transport.UDPReceiver   // gradient endpoint (server)
	modelRecvs  []*transport.UDPReceiver // per-worker model endpoints
	models      *transport.UDPFanOut     // server → worker model channels, by worker id
	gradSenders []*transport.UDPSender   // worker → server gradient channels
	gradMu      sync.Mutex               // guards gradSenders slots (churn re-dials swap them)
	// modelPktScratch is the broadcast split scratch, reused every round.
	modelPktScratch []transport.Packet
}

var _ ps.Trainer = (*UDPCluster)(nil)

// NewUDPCluster validates the configuration and builds the (not yet
// listening) cluster.
func NewUDPCluster(cfg UDPClusterConfig) (*UDPCluster, error) {
	c := &UDPCluster{}
	if err := c.setup(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// setGradSender swaps worker id's gradient-sender slot — nil while the churn
// schedule holds the worker down, a fresh backoff-dialled sender on rejoin —
// so Close releases whichever socket the worker last held.
func (c *UDPCluster) setGradSender(id int, s *transport.UDPSender) {
	c.gradMu.Lock()
	defer c.gradMu.Unlock()
	c.gradSenders[id] = s
}

// Start binds the server's gradient endpoint and one model endpoint per
// worker, then launches the worker goroutines. It must be called exactly
// once before Step.
func (c *UDPCluster) Start() error {
	if err := c.canStart(); err != nil {
		return err
	}
	// Step reads raw packets (RecvPacket) and the round engine reassembles
	// them, so the receiver's own reassembler and recoup policy stay unused.
	recv, err := transport.ListenUDP(c.cfg.Addr, c.cfg.Codec, c.cfg.Recoup, c.cfg.Seed)
	if err != nil {
		return err
	}
	c.recv = recv
	c.models = transport.NewUDPFanOut(c.cfg.Codec, c.cfg.MTU, udpPaceBurst, udpPaceDelay)
	dim := c.Model().NumParams()
	// abort releases every socket the failed Start opened; no worker
	// goroutine has launched yet, so there is nothing to wait for.
	abort := func(err error) error {
		c.closed = true
		c.closeSockets()
		return err
	}
	bindHost := c.cfg.WorkerBindHost
	workers := make([]*clusterWorker, c.cfg.Workers)
	for id := range workers {
		// Loss is injected by the shared seeded schedules, never by an
		// endpoint's own rng: drop rate 0 on every sender and receiver.
		// The gradient sender is dialled first so the worker's model
		// endpoint can bind the same interface the kernel routes toward
		// the server.
		//aggrevet:lineage drop rate 0: the sender's rng is never drawn, loss comes from the shared seeded schedule
		gsend, err := transport.DialUDP(recv.Addr(), c.cfg.Codec, c.cfg.MTU, 0, 0)
		if err != nil {
			return abort(err)
		}
		gsend.SetPacing(udpPaceBurst, udpPaceDelay)
		c.gradSenders = append(c.gradSenders, gsend)
		if bindHost == "" {
			host, _, err := net.SplitHostPort(gsend.LocalAddr())
			if err != nil {
				return abort(fmt.Errorf("cluster: derive worker bind host from %q: %w", gsend.LocalAddr(), err))
			}
			bindHost = host
		}
		//aggrevet:lineage drop rate 0: the receiver's rng is never drawn, loss comes from the shared seeded schedule
		mrecv, err := transport.ListenUDP(net.JoinHostPort(bindHost, "0"), c.cfg.Codec, transport.DropGradient, 0)
		if err != nil {
			return abort(err)
		}
		c.modelRecvs = append(c.modelRecvs, mrecv)
		if err := c.models.Dial(mrecv.Addr()); err != nil {
			return abort(err)
		}
		if workers[id], err = newClusterWorker(id, &c.cfg, &c.rounds); err != nil {
			return abort(err)
		}
	}
	for id := 0; id < c.cfg.Workers; id++ {
		c.workerWG.Add(1)
		go func(id int) {
			defer c.workerWG.Done()
			if err := c.runWorker(workers[id], c.modelRecvs[id], c.gradSenders[id], dim); err != nil {
				c.workerErrs <- fmt.Errorf("worker %d: %w", id, err)
			}
		}(id)
	}
	c.started = true
	return nil
}

// runWorker is the worker main loop: model broadcasts in (possibly torn by
// the scheduled downlink loss), scheduled-loss gradient datagrams out, until
// the server closes the model socket — doing at each settled broadcast what
// its slot's plan says. dim is the deployment's model dimension, read once
// under Start so the goroutine never touches the server's live parameter
// vector.
func (c *UDPCluster) runWorker(w *clusterWorker, mrecv *transport.UDPReceiver, send *transport.UDPSender, dim int) error {
	// The collector settles a torn broadcast the moment its scheduled
	// survivors are in, so it needs the downlink mask of any broadcast it
	// buffers — including ones ahead of the step the worker has reached,
	// whose step tag is an unauthenticated wire field. That mask is keyed per
	// (step, worker), so the planner answers for any step in O(packets), and
	// on a loss-free downlink the collector gets no hook. The timeline (At)
	// only sees settled steps, which the collector's horizon keeps in reach.
	var schedule func(step int) []bool
	if c.cfg.ModelDropRate > 0 {
		schedule = func(step int) []bool { return w.plan.Downlink(step, w.id) }
	}
	col := transport.NewModelCollector(mrecv, transport.ModelCollectorConfig{
		Dim:              dim,
		MTU:              c.cfg.MTU,
		Codec:            c.cfg.Codec,
		Schedule:         schedule,
		BroadcastTimeout: c.cfg.RoundTimeout,
		IdleTimeout:      udpWorkerIdleTimeout,
	})
	// The replica's parameter store is the receive buffer, as on TCP: a
	// broadcast's datagrams land in it, so loading the model copies nothing.
	params := w.replica.Params()
	var pktScratch []transport.Packet // split scratch, reused every round
	for {
		ev, err := col.Next(params)
		if err != nil {
			return nil // socket closed by the server (or idle timeout): termination
		}
		plan := w.plan.At(ev.Step, w.id)
		switch plan.Phase {
		case ps.ChurnCrash:
			// Scheduled crash: tear the gradient sender down abruptly,
			// submitting nothing. The model endpoint stays bound — it is
			// the worker's stable address — but the server, reading the
			// same plan, stops broadcasting to it while down, so the
			// collector moves straight on to the rejoin round instead of
			// waiting out the BroadcastTimeout on down-step broadcasts that
			// by construction never come.
			send.Close()
			send = nil
			c.setGradSender(w.id, nil)
			if plan.Gone() {
				return nil // rejoin budget exhausted: gone for good
			}
			col.SkipTo(plan.Rejoin)
			continue
		case ps.ChurnDown:
			continue // defensive: no broadcast reaches a down worker
		}
		// Rejoining without a sender (the rejoin round itself, or recovery
		// from a missed rejoin broadcast): re-dial through the bounded
		// backoff ladder before submitting.
		if send == nil {
			fresh, _, err := dialUDPWithBackoff(c.recv.Addr(), c.cfg.Codec, c.cfg.MTU)
			if err != nil {
				return err
			}
			fresh.SetPacing(udpPaceBurst, udpPaceDelay)
			send = fresh
			c.setGradSender(w.id, fresh)
		}
		if c.cfg.Unresponsive[w.id] {
			continue // consume the broadcast, never answer (crashed node)
		}
		// A torn or genuinely lost broadcast carries no model: the worker
		// answers on a retained one if the plan tags one, else sits out (the
		// server recoups the slot — per plan, or per round deadline for a
		// genuine loss).
		msg := w.roundSubmission(ev.Step, ev.Params, plan)
		if msg == nil {
			continue
		}
		pktScratch = c.cfg.Codec.SplitInto(pktScratch[:0], msg, c.cfg.MTU)
		if err := send.SendPackets(pktScratch, plan.Uplink); err != nil {
			return err
		}
	}
}

// Step runs one synchronous round over the datagram sockets: broadcast the
// model under the round's downlink masks, then feed the round every packet
// that arrives until nothing is outstanding or the deadline passes.
func (c *UDPCluster) Step() (*ps.StepResult, error) {
	if err := c.canStep(); err != nil {
		return nil, err
	}
	select {
	case err := <-c.workerErrs:
		return nil, fmt.Errorf("cluster: worker failed: %w", err)
	default:
	}
	round := c.eng.Begin()
	// The gradient channel is connectionless: a rejoining worker just starts
	// sending again, so there is no handshake to wait for.
	round.AdmitRejoins()

	// Broadcast phase. Suspected workers are included — a straggler that
	// recovers can rejoin the round. Scheduled downlink drops are applied
	// before the write (the fan-out takes each worker's mask), mirroring the
	// uplink design.
	c.modelPktScratch = c.cfg.Codec.SplitInto(c.modelPktScratch[:0], &transport.GradientMsg{
		Worker: transport.ModelWorkerID, Step: round.Step(), Grad: round.Params(),
	}, c.cfg.MTU)
	if err := c.models.Broadcast(c.modelPktScratch, round.Downlink); err != nil {
		return nil, fmt.Errorf("cluster: model broadcast at step %d: %w", round.Step(), err)
	}

	// Collection phase. Datagrams are unauthenticated, so whatever the round
	// rejects (out-of-range ids, wrong dimension, stale or future steps,
	// duplicates after settlement) is ignored, never fatal: a single hostile
	// datagram must not take the round down.
	deadline := roundDeadline(c.cfg.RoundTimeout)
	for round.Outstanding() > 0 {
		remaining := untilDeadline(deadline)
		if remaining <= 0 {
			break
		}
		pkt, err := c.recv.RecvPacket(remaining)
		if errors.Is(err, transport.ErrTimeout) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: gradient receive at step %d: %w", round.Step(), err)
		}
		round.OfferPacket(pkt)
	}
	round.Expire() // a no-op unless the deadline cut the collection short
	return round.Finish()
}

// Close unblocks every worker by closing its model endpoint, waits for the
// worker goroutines, and releases the remaining sockets. It is idempotent.
func (c *UDPCluster) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if !c.started {
		return nil // nothing bound: a failed Start releases its own sockets
	}
	for _, r := range c.modelRecvs {
		r.Close()
	}
	c.workerWG.Wait()
	return c.closeSockets()
}

// closeSockets releases every socket the cluster holds (closing a model
// endpoint twice is harmless). Under churn a gradient-sender slot holds
// whichever sender the worker last dialled, or nil while the schedule had it
// down when the run ended.
func (c *UDPCluster) closeSockets() error {
	for _, r := range c.modelRecvs {
		r.Close()
	}
	c.models.Close()
	c.gradMu.Lock()
	for _, s := range c.gradSenders {
		if s != nil {
			s.Close()
		}
	}
	c.gradMu.Unlock()
	return c.recv.Close()
}
