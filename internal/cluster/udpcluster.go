package cluster

import (
	"errors"
	"fmt"
	"net"
	"time"

	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

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

// idleBackstop bounds a worker's wait for a broadcast while none is in
// flight: the backstop against a server that vanished without closing the
// worker's model endpoint.
const idleBackstop = time.Hour

// UDPCluster is a running lossy-datagram deployment: a training driver calls
// Step and Model on it. It is the round engine's datagram adapter: it owns
// the server's sockets, the packet split and the pacing; every received
// packet goes to the round, which reassembles, recoups scheduled losses and
// decides what is still outstanding. Each worker dials and owns its own
// gradient uplink.
type UDPCluster struct {
	socketServer
	recv       *transport.UDPReceiver   // gradient endpoint (server)
	modelRecvs []*transport.UDPReceiver // per-worker model endpoints
	models     *transport.UDPFanOut     // server → worker model channels, by worker id
	// modelPktScratch is the broadcast split scratch, reused every round.
	modelPktScratch []transport.Packet
}

// NewUDPCluster validates the configuration and builds the (not yet
// listening) cluster.
func NewUDPCluster(cfg UDPClusterConfig) (*UDPCluster, error) {
	c := &UDPCluster{}
	if err := c.setup(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Start binds the server's gradient endpoint, one model endpoint per worker
// and the model fan-out, then launches the worker goroutines. A failure
// closes the cluster. It must be called exactly once before Step.
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
	c.recv, c.started = recv, true
	c.models = transport.NewUDPFanOut(c.cfg.Codec, c.cfg.MTU, udpPaceBurst, udpPaceDelay)
	abort := func(err error) error { c.Close(); return err }
	// The model endpoints bind the server's own host: an interface the
	// server is reachable on can reach its workers.
	host, _, err := net.SplitHostPort(recv.Addr())
	if err != nil {
		return abort(err)
	}
	workers := make([]*clusterWorker, c.cfg.Workers)
	for id := range workers {
		// Loss is injected by the shared seeded schedules, never by an
		// endpoint's own rng: drop rate 0 on every sender and receiver.
		//aggrevet:lineage drop rate 0: the receiver's rng is never drawn, loss comes from the shared seeded schedule
		mrecv, err := transport.ListenUDP(net.JoinHostPort(host, "0"), c.cfg.Codec, transport.DropGradient, 0)
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
	c.startWorkers(func(id int) error { return c.runWorker(workers[id], c.modelRecvs[id]) })
	return nil
}

// runWorker runs one worker over a udpLink: model broadcasts in through its
// collector on mrecv (possibly torn by the scheduled downlink loss),
// scheduled-loss gradient datagrams out on the uplink it dials.
func (c *UDPCluster) runWorker(w *clusterWorker, mrecv *transport.UDPReceiver) error {
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
	return w.run(&udpLink{
		recv: mrecv,
		col: transport.NewModelCollector(transport.ModelCollectorConfig{
			Dim:      w.replica.NumParams(),
			MTU:      c.cfg.MTU,
			Codec:    c.cfg.Codec,
			Schedule: schedule,
		}),
		server: c.recv.Addr(),
		cfg:    &c.cfg,
	})
}

// udpLink is a datagram worker's link: broadcasts received on its model
// endpoint and assembled by its collector, gradients split into datagrams on
// an uplink the worker dials itself — when it first submits, and again after
// every crash.
type udpLink struct {
	recv   *transport.UDPReceiver // the worker's model endpoint
	col    *transport.ModelCollector
	server string // the server's gradient endpoint
	cfg    *UDPClusterConfig
	uplink *transport.UDPSender // nil until the next submission dials it
	pkts   []transport.Packet   // split scratch, reused every round
}

// next is the worker's receive loop, the mirror of Step's: it offers every
// datagram to the collector until a broadcast settles. While one is in
// flight the wait is bounded by a round timeout from the moment it was
// first seen in flight — a deadline, not a quiet period, so later
// broadcasts and spoofed or gradient-tagged datagrams, which keep arriving
// in a live cluster, cannot postpone it — and when it passes the collector
// gives the broadcast up as lost. With none in flight the wait is the idle
// backstop, and its timeout is an error like a closed endpoint.
//
// The clock is read when a broadcast is first seen in flight and for each
// datagram that arrives while none is, never for the datagrams of one in
// flight: the receiver arms the deadline it is passed once a recvmmsg batch.
func (l *udpLink) next(params tensor.Vector) (int, tensor.Vector, error) {
	var deadline time.Time
	for {
		if ev := l.col.Settled(); ev != nil {
			return ev.Step, ev.Params, nil
		}
		until := deadline
		switch {
		case !l.col.InFlight():
			until = roundDeadline(idleBackstop)
		case deadline.IsZero():
			deadline = roundDeadline(l.cfg.RoundTimeout)
			until = deadline
		}
		pkt, err := l.recv.RecvPacketUntil(until)
		switch {
		case err == nil:
			l.col.Offer(pkt, params)
		case errors.Is(err, transport.ErrTimeout) && l.col.InFlight():
			l.col.Expire()
		default:
			return 0, nil, err // model endpoint closed by the server (or idle timeout)
		}
	}
}

// crash closes the uplink, submitting nothing. The model endpoint stays
// bound — it is the worker's stable address — and the server, reading the
// same plan, broadcasts nothing to it while down, so the collector moves
// straight on to the rejoin round instead of waiting out a round timeout on
// down-step broadcasts that by construction never come.
func (l *udpLink) crash(rejoin int) error {
	l.close()
	l.col.SkipTo(rejoin)
	return nil
}

// send dials the uplink if the link holds none — UDP "connects" locally, so
// on a healthy host the first attempt succeeds — then sends the submission's
// datagrams less the dropped ones.
func (l *udpLink) send(sub *transport.GradientMsg, dropped []bool) error {
	if l.uplink == nil {
		s, _, err := dialWithBackoff("gradient sender", l.server, func() (*transport.UDPSender, error) {
			//aggrevet:lineage drop rate 0: the sender's rng is never drawn, loss comes from the shared seeded schedule
			return transport.DialUDP(l.server, l.cfg.Codec, l.cfg.MTU, 0, 0)
		})
		if err != nil {
			return err
		}
		s.SetPacing(udpPaceBurst, udpPaceDelay)
		l.uplink = s
	}
	l.pkts = l.cfg.Codec.SplitInto(l.pkts[:0], sub, l.cfg.MTU)
	return l.uplink.SendPackets(l.pkts, dropped)
}

func (l *udpLink) close() {
	if l.uplink != nil {
		l.uplink.Close()
		l.uplink = nil
	}
}

// Step runs one synchronous round over the datagram sockets: broadcast the
// model under the round's downlink masks, then feed the round every packet
// that arrives until nothing is outstanding or the deadline passes. The
// result's Slots is valid until the next Step.
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
	//
	// The deadline is read from the clock once a round; the receiver arms it
	// once a recvmmsg batch, so the round ends at most one batch past it.
	deadline := roundDeadline(c.cfg.RoundTimeout)
	for round.Outstanding() > 0 {
		pkt, err := c.recv.RecvPacketUntil(deadline)
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

// Close unblocks every worker by closing its model endpoint — the worker
// closes its uplink on the way out — waits for the worker goroutines, and
// releases the server's other sockets. It is idempotent, and a failed Start
// calls it.
func (c *UDPCluster) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if !c.started {
		return nil // nothing bound
	}
	for _, r := range c.modelRecvs {
		r.Close()
	}
	c.workerWG.Wait()
	c.models.Close()
	return c.recv.Close()
}
