package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aggregathor/internal/ps"
	"aggregathor/internal/transport"
)

// tcpPeer is one server-side worker connection. worker is the id the
// connection last identified itself as (-1 until its first frame); only the
// Step goroutine touches it.
type tcpPeer struct {
	conn   *transport.TCPConn
	worker int
}

// recvEvent is one thing a connection delivered: the accepted connection
// itself, a frame (a gradient, or a fresh reconnect's rejoin handshake), or
// the terminal error of its accept or read.
type recvEvent struct {
	peer *tcpPeer
	msg  *transport.GradientMsg
	err  error
}

// TCPCluster is a running socket-distributed deployment that implements
// ps.Trainer. It is the round engine's TCP adapter: it owns the listener,
// the connections and their readers, and the rejoin handshakes; what a round
// waits for and what it aggregates is the engine's business.
type TCPCluster struct {
	socketServer
	ln *transport.TCPListener
	// peers is the broadcast set: the live connections, at most one per
	// worker. A connection leaves it (and is closed) when its reader reports
	// its terminal error or its worker rejoins on a fresh one.
	peers    []*tcpPeer
	inbox    chan recvEvent
	readerWG sync.WaitGroup
	// modelWire holds the broadcast's coordinates when the wire encoding is
	// not the parameter vector's own memory (see broadcast); empty otherwise.
	modelWire []byte

	// Churn plumbing (nil/unused when the schedule is disabled): the
	// handshake channel the rejoin accept loop feeds, a stash for handshakes
	// that arrived ahead of their scheduled rejoin round, a stop signal for
	// in-flight handshake readers, and the accept-loop waitgroup.
	rejoinCh    chan recvEvent
	rejoinStash []recvEvent
	stop        chan struct{}
	acceptWG    sync.WaitGroup

	// testAbruptClose (tests only) makes the given worker close its
	// connection without submitting as soon as it receives the broadcast
	// for the given step — the abrupt, unscheduled mid-round disconnect
	// the dead-marking path must absorb by settling the round via recoup
	// instead of wedging until RoundTimeout.
	testAbruptClose map[int]int
}

var _ ps.Trainer = (*TCPCluster)(nil)

// NewTCPCluster validates the configuration and builds the (not yet
// listening) cluster. A stream has no datagrams to size or lose: the
// datagram axes must be zero, rather than silently ignored.
func NewTCPCluster(cfg TCPClusterConfig) (*TCPCluster, error) {
	if cfg.WorkerBindHost != "" || cfg.MTU != 0 || cfg.DropRate != 0 || cfg.ModelDropRate != 0 || cfg.StaleModels {
		return nil, errors.New("cluster: WorkerBindHost, MTU, DropRate, ModelDropRate and StaleModels describe a datagram link; a TCP cluster has none (use NewUDPCluster)")
	}
	c := &TCPCluster{}
	if err := c.setup(cfg); err != nil {
		return nil, err
	}
	if cfg.Churn.Enabled() {
		c.rejoinCh = make(chan recvEvent, cfg.Workers)
		c.stop = make(chan struct{})
	}
	return c, nil
}

// Start binds the listener, launches the worker goroutines and accepts their
// connections. It must be called exactly once before Step.
func (c *TCPCluster) Start() error {
	if err := c.canStart(); err != nil {
		return err
	}
	ln, err := transport.ListenTCP(c.cfg.Addr, c.cfg.Codec)
	if err != nil {
		return err
	}
	c.ln = ln
	for id := 0; id < c.cfg.Workers; id++ {
		c.workerWG.Add(1)
		go func(id int) {
			defer c.workerWG.Done()
			if err := c.runWorker(ln.Addr(), id); err != nil {
				c.workerErrs <- fmt.Errorf("worker %d: %w", id, err)
			}
		}(id)
	}
	// Accept every worker, but watch for worker startup failures (a dial
	// error) so a worker that never connects fails Start instead of
	// leaving Accept waiting forever for the nth connection.
	acceptCh := make(chan recvEvent, c.cfg.Workers)
	//aggrevet:goro exits after n accepts or the first error; abortStart closes the listener to unblock a pending Accept
	go func() {
		for i := 0; i < c.cfg.Workers; i++ {
			conn, err := ln.Accept()
			if err == nil {
				conn.SetExpectDim(c.Model().NumParams())
			}
			acceptCh <- recvEvent{peer: &tcpPeer{conn: conn, worker: -1}, err: err}
			if err != nil {
				return
			}
		}
	}()
	for len(c.peers) < c.cfg.Workers {
		//aggrevet:select startup-only race: a ready workerErrs means the run is already doomed, and either order reaches the same abort
		select {
		case r := <-acceptCh:
			if r.err != nil {
				c.abortStart()
				return r.err
			}
			c.peers = append(c.peers, r.peer)
		case err := <-c.workerErrs:
			c.abortStart()
			return fmt.Errorf("cluster: worker failed during startup: %w", err)
		}
	}
	// One persistent reader per connection: gradients from every round —
	// including late straggler submissions — funnel into the inbox, where
	// Step offers them to the round by self-declared worker id.
	c.inbox = make(chan recvEvent, 2*c.cfg.Workers)
	for _, p := range c.peers {
		c.startReader(p)
	}
	if c.rejoinCh != nil {
		c.acceptRejoins()
	}
	c.started = true
	return nil
}

// startReader launches the persistent reader for one connection.
func (c *TCPCluster) startReader(p *tcpPeer) {
	c.readerWG.Add(1)
	go func() {
		defer c.readerWG.Done()
		for {
			msg, err := p.conn.RecvGradient()
			c.inbox <- recvEvent{peer: p, msg: msg, err: err}
			if err != nil {
				return
			}
		}
	}()
}

// acceptRejoins keeps the listener accepting after startup (churn only): a
// crashed worker dials back through the backoff ladder whenever its schedule
// says, sends the rejoin handshake as its first frame, and the connection is
// handed to Step — which offers it to the round at the scheduled rejoin
// round. The loop exits when Close releases the listener.
func (c *TCPCluster) acceptRejoins() {
	c.acceptWG.Add(1)
	go func() {
		defer c.acceptWG.Done()
		for {
			conn, err := c.ln.Accept()
			if err != nil {
				return // listener closed: shutdown
			}
			c.acceptWG.Add(1)
			go func() {
				defer c.acceptWG.Done()
				conn.SetExpectDim(rejoinHelloDim)
				hello, err := conn.RecvGradient()
				if err != nil {
					conn.Close()
					return
				}
				select {
				case c.rejoinCh <- recvEvent{peer: &tcpPeer{conn: conn, worker: hello.Worker}, msg: hello}:
				case <-c.stop:
					conn.Close()
				}
			}()
		}
	}()
}

// abortStart tears a failed startup down completely: accepted connections
// are closed (unblocking their workers' RecvModel), the listener is closed
// (unblocking the accept goroutine), and the worker goroutines are waited
// for — no leak per failed deployment, and the later deferred Close stays a
// safe no-op.
func (c *TCPCluster) abortStart() {
	c.closed = true
	for _, p := range c.peers {
		p.conn.Close()
	}
	c.ln.Close()
	c.workerWG.Wait()
}

// Step runs one synchronous round over the sockets: install the scheduled
// reconnects, broadcast, then feed the round whatever the readers deliver
// until nothing is outstanding or the deadline passes.
func (c *TCPCluster) Step() (*ps.StepResult, error) {
	if err := c.canStep(); err != nil {
		return nil, err
	}
	round := c.eng.Begin()
	if err := c.admitRejoins(round); err != nil {
		return nil, err
	}
	if err := c.broadcast(round); err != nil {
		return nil, err
	}
	timer := newRoundTimer(c.cfg.RoundTimeout)
	defer timer.Stop()
	for round.Outstanding() > 0 {
		//aggrevet:select a ready timer means a missed deadline that the round absorbs through recoup; healthy gathers never race it
		select {
		case ev := <-c.inbox:
			if err := c.deliver(round, ev); err != nil {
				return nil, err
			}
		case <-timer.C:
			round.Expire()
		}
	}
	return round.Finish()
}

// broadcast sends the round's model to every live connection in parallel.
// Suspected workers are included — a straggler that recovers can rejoin the
// round. A send to a connection whose peer is gone fails harmlessly; its
// reader reports the loss.
//
// The coordinates are put in wire encoding at most once: on the float64 wire
// of a little-endian host they are the live parameter vector's own memory,
// borrowed — sound only because every writer is joined (wg.Wait) before this
// returns, and Step calls Round.Finish, the one thing that writes the
// parameters, after it; otherwise they are rendered into modelWire.
func (c *TCPCluster) broadcast(round *ps.Round) error {
	step, coords := round.Step(), c.cfg.Codec.WireCoords(round.Params(), &c.modelWire)
	var wg sync.WaitGroup
	var delivered atomic.Int64
	for _, p := range c.peers {
		wg.Add(1)
		go func(conn *transport.TCPConn) {
			defer wg.Done()
			if conn.SendModelCoords(step, coords) == nil {
				delivered.Add(1)
			}
		}(p.conn)
	}
	wg.Wait()
	if delivered.Load() == 0 {
		return fmt.Errorf("cluster: no live worker connections at step %d", step)
	}
	return nil
}

// deliver hands one reader event to the round. A stream connection
// authenticates its frames' order, so what the round rejects is a lying
// peer and fails loudly — except a straggler's submission from an earlier
// round, which is protocol-normal and ignored.
func (c *TCPCluster) deliver(round *ps.Round, ev recvEvent) error {
	if ev.err != nil {
		c.hangUp(ev.peer)
		if ev.peer.worker < 0 {
			// A connection that dies before its worker ever identified
			// itself is a deployment failure (a healthy worker only
			// disconnects after the server hangs up), not Byzantine
			// behaviour to tolerate.
			return fmt.Errorf("cluster: worker connection lost before first gradient at step %d: %w",
				round.Step(), c.workerFailure(ev.err))
		}
		round.Disconnected(ev.peer.worker)
		return nil
	}
	msg := ev.msg
	ev.peer.worker = msg.Worker
	v := round.Offer(msg.Worker, msg.Step, msg.Grad, msg.Loss)
	if v.Admitted() || msg.Step < round.Step() && (v == ps.RejectTooStale || v == ps.RejectWrongTag) {
		return nil // admitted, or a straggler's frame from an earlier round
	}
	return fmt.Errorf("cluster: gradient from worker %d tagged step %d at step %d: %v",
		msg.Worker, msg.Step, round.Step(), v)
}

// hangUp closes a worker connection and takes it out of the broadcast set.
func (c *TCPCluster) hangUp(p *tcpPeer) {
	p.conn.Close()
	if i := slices.Index(c.peers, p); i >= 0 {
		c.peers = slices.Delete(c.peers, i, i+1)
	}
}

// admitRejoins installs this round's scheduled reconnects before the
// broadcast, so a rejoined worker receives the current model. A worker
// dials back (and hands its handshake to the accept loop) the moment it
// crashes, not at its rejoin round, so early handshakes wait in the stash;
// a handshake that fails to appear by the round timeout is a loud error —
// the schedule said the worker would be back.
func (c *TCPCluster) admitRejoins(round *ps.Round) error {
	stashed := c.rejoinStash
	c.rejoinStash = c.rejoinStash[:0]
	for _, rj := range stashed {
		if err := c.offerRejoin(round, rj); err != nil {
			return err
		}
	}
	if round.PendingRejoins() == 0 {
		return nil
	}
	timer := newRoundTimer(c.cfg.RoundTimeout)
	defer timer.Stop()
	for round.PendingRejoins() > 0 {
		//aggrevet:select a ready timer means a missed rejoin deadline that aborts the round loudly; healthy rejoins never race it
		select {
		case rj := <-c.rejoinCh:
			if err := c.offerRejoin(round, rj); err != nil {
				return err
			}
		case <-timer.C:
			return fmt.Errorf("cluster: %d scheduled rejoin handshake(s) missing at step %d after %v",
				round.PendingRejoins(), round.Step(), c.cfg.RoundTimeout)
		}
	}
	return nil
}

// offerRejoin stashes a handshake that is ahead of its round and offers any
// other to the round; on admission the fresh connection replaces whatever
// connection the worker held before its crash and gets a persistent reader
// pre-identified by the handshake.
func (c *TCPCluster) offerRejoin(round *ps.Round, rj recvEvent) error {
	hello := rj.msg
	if hello.Step > round.Step() {
		c.rejoinStash = append(c.rejoinStash, rj)
		return nil
	}
	if v := round.Rejoin(hello.Worker, hello.Step, int(hello.Loss)); v != ps.RejoinAdmit {
		rj.peer.conn.Close()
		return fmt.Errorf("cluster: rejoin handshake for worker %d (step %d) rejected at step %d: %v",
			hello.Worker, hello.Step, round.Step(), v)
	}
	for _, p := range c.peers {
		if p.worker == hello.Worker {
			c.hangUp(p) // its reader has not reported the teardown yet
			break
		}
	}
	rj.peer.conn.SetExpectDim(c.Model().NumParams()) // admitted: from here on it carries gradients
	c.peers = append(c.peers, rj.peer)
	c.startReader(rj.peer)
	return nil
}

// workerFailure surfaces the root cause of an anonymous connection loss: the
// failing worker goroutine reports its error just after closing its
// connection, so wait briefly for it before falling back to the read error.
func (c *TCPCluster) workerFailure(readErr error) error {
	//aggrevet:select error-path only: the run already failed, the window merely improves root-cause attribution
	select {
	case err := <-c.workerErrs:
		return err
	case <-failureReportWindow(200 * time.Millisecond):
		return readErr
	}
}

// Close hangs up every worker connection, waits for the workers and readers
// to exit, and releases the listener. It is idempotent.
func (c *TCPCluster) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.stop != nil {
		close(c.stop) // release hello goroutines blocked on rejoinCh
	}
	if !c.started {
		return nil // nothing bound: a failed Start releases its own sockets
	}
	for _, p := range c.peers {
		p.conn.Close()
	}
	for _, rj := range c.rejoinStash {
		rj.peer.conn.Close()
	}
	// Drain reader events until every reader has exited, so none blocks on
	// a full inbox while shutting down; workers exit on the closed
	// connection (post-shutdown read errors are expected, not surfaced).
	done := make(chan struct{})
	go func() {
		c.readerWG.Wait()
		close(done)
	}()
	for drained := false; !drained; {
		//aggrevet:select shutdown drain: received events are discarded, so resolution order cannot reach results
		select {
		case <-c.inbox:
		case <-done:
			drained = true
		}
	}
	err := c.ln.Close() // unblocks the rejoin accept loop, if any
	c.acceptWG.Wait()
	// Handshakes that arrived after the last admitted round still own live
	// connections; hang those up so their workers' RecvModel returns.
	for churnDrained := false; !churnDrained; {
		select {
		case rj := <-c.rejoinCh:
			rj.peer.conn.Close()
		default:
			churnDrained = true
		}
	}
	c.workerWG.Wait()
	return err
}

// runWorker is the worker main loop: dial, then model→gradient
// until the server hangs up, doing at each broadcast what its slot's plan
// says. On a scheduled crash it tears the socket down without a goodbye,
// dials back through the bounded backoff ladder, and opens the fresh
// connection with a rejoin handshake the server holds until the scheduled
// rejoin round.
func (c *TCPCluster) runWorker(addr string, id int) error {
	cfg := &c.cfg
	conn, err := transport.DialTCP(addr, cfg.Codec)
	if err != nil {
		return err
	}
	defer func() { conn.Close() }()
	w, err := newClusterWorker(id, cfg, &c.rounds)
	if err != nil {
		return err
	}
	conn.SetExpectDim(w.replica.NumParams())
	// The replica's parameter store is the receive buffer: a broadcast lands
	// where the forward pass reads it. A failed receive may leave it torn,
	// and the worker exits without training on it.
	params := w.replica.Params()
	for {
		step, err := conn.RecvModel(params)
		if err != nil {
			return nil // server hung up: normal termination
		}
		plan := w.plan.At(step, id)
		switch plan.Phase {
		case ps.ChurnCrash:
			conn.Close() // abrupt teardown: no goodbye, no submission
			if plan.Gone() {
				return nil // rejoin budget exhausted: gone for good
			}
			// Dial back immediately; the handshake waits server-side
			// until the scheduled rejoin round admits it.
			fresh, attempts, err := dialTCPWithBackoff(addr, cfg.Codec)
			if err != nil {
				return err
			}
			conn = fresh
			conn.SetExpectDim(w.replica.NumParams())
			if err := conn.SendGradient(rejoinHello(id, plan.Rejoin, attempts)); err != nil {
				return err
			}
			continue
		case ps.ChurnDown:
			continue // defensive: a down worker holds no connection
		}
		if s, ok := c.testAbruptClose[id]; ok && step == s {
			conn.Close() // test hook: vanish between broadcast and submit
			return nil
		}
		if cfg.Unresponsive[id] {
			continue // consume the broadcast, never answer (crashed node)
		}
		sub := w.roundSubmission(step, params, plan)
		if sub == nil {
			continue // scheduled too-stale: the worker sits the round out
		}
		if err := conn.SendGradient(sub); err != nil {
			return err
		}
	}
}
