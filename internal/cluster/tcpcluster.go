package cluster

import (
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// tcpPeer is one server-side worker connection. worker is the id its hello
// named, -1 when the connection died before saying hello; it never changes,
// so the connection's slot is fixed from its first frame.
type tcpPeer struct {
	conn   *transport.TCPConn
	worker int
}

// recvEvent is one thing a connection delivered: its hello, a gradient, or
// the terminal error of its read.
type recvEvent struct {
	peer  *tcpPeer
	msg   transport.GradientMsg
	hello bool
	err   error
}

// helloDim is the hello's placeholder gradient dimension, and the only one a
// connection may carry before its hello is read.
const helloDim = 1

// TCPCluster is a running socket-distributed deployment: a training driver
// calls Step and Model on it. It is the round engine's TCP adapter: it owns
// the listener, the connections and their readers; what a round waits for
// and what it aggregates is the engine's business.
//
// Every connection opens with a hello — {Worker: id, Step: the round it
// joins at, Loss: the dial attempts it took} — at startup (step 0) and on
// every scheduled rejoin alike. One accept loop serves the cluster's
// lifetime and gives each connection one reader, which feeds the hello and
// then the gradients into the one inbox.
type TCPCluster struct {
	socketServer
	ln *transport.TCPListener
	// peers is the broadcast set: the admitted connections, at most one per
	// worker. A connection leaves it (and is closed) when its reader reports
	// its terminal error or its worker rejoins on a fresh one.
	peers []*tcpPeer
	inbox chan recvEvent
	// readerWG counts the accept loop and every reader it started.
	readerWG sync.WaitGroup
	// stash holds hellos that arrived ahead of their scheduled rejoin round:
	// a crashed worker dials back at once, not at its rejoin round.
	stash []recvEvent
	// modelWire holds the broadcast's coordinates when the wire encoding is
	// not the parameter vector's own memory (see broadcast); empty otherwise.
	modelWire []byte
	// rows[id] passes worker id's row — the vector its gradient lands in —
	// from the Step goroutine to whichever reader speaks for the worker. A
	// reader takes it without blocking and allocates a vector when it is
	// not there; Step hands back the vector a frame landed in at once when
	// the round refused it, and when the round admitted it (held[id]) as the
	// next Step starts, once that round is over. Each row is with one
	// goroutine at a time, so a steady-state round allocates no
	// gradient-sized vector and holds at most one per worker.
	rows []chan tensor.Vector
	held []tensor.Vector

	// testAbruptClose (tests only) makes the given worker close its
	// connection without submitting as soon as it receives the broadcast
	// for the given step — the abrupt, unscheduled mid-round disconnect
	// the dead-marking path must absorb by settling the round via recoup
	// instead of wedging until RoundTimeout.
	testAbruptClose map[int]int
}

// NewTCPCluster validates the configuration and builds the (not yet
// listening) cluster. A stream has no datagrams to size or lose: the
// datagram axes must be zero, rather than silently ignored.
func NewTCPCluster(cfg TCPClusterConfig) (*TCPCluster, error) {
	if cfg.MTU != 0 || cfg.DropRate != 0 || cfg.ModelDropRate != 0 || cfg.StaleModels {
		return nil, errors.New("cluster: MTU, DropRate, ModelDropRate and StaleModels describe a datagram link; a TCP cluster has none (use NewUDPCluster)")
	}
	c := &TCPCluster{}
	if err := c.setup(cfg); err != nil {
		return nil, err
	}
	c.rows, c.held = make([]chan tensor.Vector, cfg.Workers), make([]tensor.Vector, cfg.Workers)
	for id := range c.rows {
		c.rows[id] = make(chan tensor.Vector, 1)
	}
	return c, nil
}

// Start binds the listener, starts the accept loop and the worker goroutines,
// and waits for the n startup hellos: distinct ids in range, each for step 0.
// Anything else, or a worker failure, fails Start loudly and closes the
// cluster. It must be called exactly once before Step.
func (c *TCPCluster) Start() error {
	if err := c.canStart(); err != nil {
		return err
	}
	ln, err := transport.ListenTCP(c.cfg.Addr, c.cfg.Codec)
	if err != nil {
		return err
	}
	c.ln, c.started = ln, true
	c.inbox = make(chan recvEvent, 2*c.cfg.Workers)
	c.readerWG.Add(1)
	go c.serve()
	c.startWorkers(func(id int) error { return c.runWorker(ln.Addr(), id) })
	for len(c.peers) < c.cfg.Workers {
		//aggrevet:select startup-only race: either failing arm closes the cluster, and the order hellos are admitted in reaches no round
		select {
		case ev := <-c.inbox:
			if err := c.admitStartup(ev); err != nil {
				c.Close()
				return err
			}
		case err := <-c.workerErrs:
			c.Close()
			return fmt.Errorf("cluster: worker failed during startup: %w", err)
		}
	}
	return nil
}

// admitStartup admits one startup hello into the broadcast set.
func (c *TCPCluster) admitStartup(ev recvEvent) error {
	if ev.err != nil {
		return fmt.Errorf("cluster: connection lost during startup: %w", ev.err)
	}
	id := ev.peer.worker
	if !ev.hello || id < 0 || id >= c.cfg.Workers || ev.msg.Step != 0 ||
		slices.ContainsFunc(c.peers, func(p *tcpPeer) bool { return p.worker == id }) {
		return fmt.Errorf("cluster: startup hello from worker %d for step %d refused", id, ev.msg.Step)
	}
	c.peers = append(c.peers, ev.peer)
	return nil
}

// serve is the cluster's one accept loop. It keeps every connection it
// accepted and, once Close releases the listener, closes them all, so no
// reader outlives the cluster.
func (c *TCPCluster) serve() {
	defer c.readerWG.Done()
	var conns []*transport.TCPConn
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			break // listener closed: shutdown
		}
		conns = append(conns, conn)
		c.readerWG.Add(1)
		go c.read(conn)
	}
	for _, conn := range conns {
		conn.Close()
	}
}

// read is one connection's reader: the hello (pinned to helloDim), then
// gradients (pinned to the model's dimension) until the terminal error. A
// gradient lands in the row of the worker the hello named when the row is
// there to take (rows), and in a vector of its own otherwise.
func (c *TCPCluster) read(conn *transport.TCPConn) {
	defer c.readerWG.Done()
	p := &tcpPeer{conn: conn, worker: -1}
	conn.SetExpectDim(helloDim)
	hello, err := conn.RecvGradient()
	ev := recvEvent{peer: p, hello: true, err: err}
	if err == nil {
		p.worker, ev.msg = hello.Worker, *hello
		conn.SetExpectDim(c.Model().NumParams())
	}
	dst := tensor.NewVector
	if p.worker >= 0 && p.worker < len(c.rows) {
		rows := c.rows[p.worker]
		dst = func(dim int) tensor.Vector {
			select {
			case row := <-rows:
				return row
			default:
				return tensor.NewVector(dim)
			}
		}
	}
	for {
		c.inbox <- ev
		if ev.err != nil {
			return
		}
		ev = recvEvent{peer: p}
		ev.err = conn.RecvGradientInto(&ev.msg, dst)
	}
}

// Step runs one synchronous round over the sockets: install the scheduled
// reconnects, broadcast, then feed the round whatever the readers deliver
// until nothing is outstanding or the deadline passes. The result's
// Slots is valid until the next Step.
func (c *TCPCluster) Step() (*ps.StepResult, error) {
	if err := c.canStep(); err != nil {
		return nil, err
	}
	// The previous round is over, finished or failed: its rows go back.
	for id, row := range c.held {
		c.handBack(id, row)
	}
	clear(c.held)
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

// handBack passes row to worker id's readers, unless the worker's channel
// already holds one (then row is garbage) or row is nil.
func (c *TCPCluster) handBack(id int, row tensor.Vector) {
	if row == nil || id < 0 || id >= len(c.rows) {
		return
	}
	select {
	case c.rows[id] <- row:
	default:
	}
}

// broadcast sends the round's model in parallel to every live connection of
// a worker the plan sends to (Round.Downlink, which the datagram fan-out
// obeys too): a worker the churn plan holds down gets nothing, whatever
// connection it left behind. Suspected workers are included — a straggler
// that recovers can rejoin the round. A send to a connection whose peer is
// gone fails harmlessly; its reader reports the loss. The round fails only
// when the plan sends to some worker and no connection took the model.
//
// The coordinates are put in wire encoding at most once: on the float64 wire
// of a little-endian host they are the live parameter vector's own memory,
// borrowed — sound only because every writer is joined (wg.Wait) before this
// returns, and Step calls Round.Finish, the one thing that writes the
// parameters, after it; otherwise they are rendered into modelWire.
func (c *TCPCluster) broadcast(round *ps.Round) error {
	step, coords := round.Step(), c.cfg.Codec.WireCoords(round.Params(), &c.modelWire)
	planned := false
	for id := range c.cfg.Workers {
		_, send := round.Downlink(id)
		planned = planned || send
	}
	var wg sync.WaitGroup
	var delivered atomic.Int64
	for _, p := range c.peers {
		if _, send := round.Downlink(p.worker); !send {
			continue
		}
		wg.Add(1)
		go func(conn *transport.TCPConn) {
			defer wg.Done()
			if conn.SendModelCoords(step, coords) == nil {
				delivered.Add(1)
			}
		}(p.conn)
	}
	wg.Wait()
	if planned && delivered.Load() == 0 {
		return fmt.Errorf("cluster: no live worker connections at step %d", step)
	}
	return nil
}

// deliver hands one inbox event to the round: a connection's terminal error,
// a hello, or a gradient. The vector a gradient landed in goes back to the
// worker's readers (rows) at once unless the round admitted it.
func (c *TCPCluster) deliver(round *ps.Round, ev recvEvent) error {
	p := ev.peer
	switch {
	case ev.err != nil:
		if c.hangUp(p) {
			round.Disconnected(p.worker)
		}
		return nil
	case ev.hello:
		return c.offerRejoin(round, ev)
	}
	admitted, err := c.offer(round, p, &ev.msg)
	if admitted {
		c.held[p.worker] = ev.msg.Grad
	} else {
		c.handBack(p.worker, ev.msg.Grad)
	}
	return err
}

// offer offers connection p's gradient to the round and reports whether the
// round admitted it. Only an admitted connection — one in the broadcast set
// — speaks for a slot, the one its hello named. A stream connection
// authenticates its frames' order, so what the round rejects is a lying peer
// and fails loudly — except a straggler's submission from an earlier round,
// which is protocol-normal and ignored.
func (c *TCPCluster) offer(round *ps.Round, p *tcpPeer, msg *transport.GradientMsg) (bool, error) {
	switch {
	case !slices.Contains(c.peers, p):
		return false, nil // a replaced connection's leftover, or one not yet admitted
	case msg.Worker != p.worker:
		return false, fmt.Errorf("cluster: worker %d's connection sent a gradient tagged as worker %d at step %d",
			p.worker, msg.Worker, round.Step())
	}
	v := round.Offer(msg.Worker, msg.Step, msg.Grad, msg.Loss)
	if v.Admitted() || msg.Step < round.Step() && (v == ps.RejectTooStale || v == ps.RejectWrongTag) {
		return v.Admitted(), nil // admitted, or a straggler's frame from an earlier round
	}
	return false, fmt.Errorf("cluster: gradient from worker %d tagged step %d at step %d: %v",
		msg.Worker, msg.Step, round.Step(), v)
}

// hangUp closes a worker connection and takes it out of the broadcast set,
// reporting whether it was there.
func (c *TCPCluster) hangUp(p *tcpPeer) bool {
	p.conn.Close()
	i := slices.Index(c.peers, p)
	if i >= 0 {
		c.peers = slices.Delete(c.peers, i, i+1)
	}
	return i >= 0
}

// admitRejoins installs this round's scheduled reconnects before the
// broadcast, so a rejoined worker receives the current model. Early hellos
// wait in the stash; the inbox is drained until every scheduled rejoin is
// in, and a hello that fails to appear by the round timeout is a loud error
// — the schedule said the worker would be back.
func (c *TCPCluster) admitRejoins(round *ps.Round) error {
	stashed := c.stash
	c.stash = c.stash[:0]
	for _, ev := range stashed {
		if err := c.offerRejoin(round, ev); err != nil {
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
		case ev := <-c.inbox:
			if err := c.deliver(round, ev); err != nil {
				return err
			}
		case <-timer.C:
			return fmt.Errorf("cluster: %d scheduled rejoin handshake(s) missing at step %d after %v",
				round.PendingRejoins(), round.Step(), c.cfg.RoundTimeout)
		}
	}
	return nil
}

// offerRejoin stashes a hello that is ahead of its round and offers any
// other to the round; on admission the fresh connection replaces whatever
// connection the worker held before its crash.
func (c *TCPCluster) offerRejoin(round *ps.Round, ev recvEvent) error {
	hello := ev.msg
	if hello.Step > round.Step() {
		c.stash = append(c.stash, ev)
		return nil
	}
	if v := round.Rejoin(hello.Worker, hello.Step, helloAttempts(hello.Loss)); !v.Admitted() {
		ev.peer.conn.Close()
		return fmt.Errorf("cluster: rejoin handshake for worker %d (step %d) rejected at step %d: %v",
			hello.Worker, hello.Step, round.Step(), v)
	}
	for _, p := range c.peers {
		if p.worker == hello.Worker {
			c.hangUp(p) // its reader has not reported the teardown yet
			break
		}
	}
	c.peers = append(c.peers, ev.peer)
	return nil
}

// helloAttempts reads the dial count a hello carries in its Loss field. Any
// peer can put any float64 there, and converting one out of int's range is
// implementation-dependent, so only an integer in [1, reconnectMaxAttempts]
// is converted; anything else reads as 0, which the round rejects as
// malformed.
func helloAttempts(loss float64) int {
	if loss >= 1 && loss <= reconnectMaxAttempts && loss == math.Trunc(loss) {
		return int(loss)
	}
	return 0
}

// Close releases the listener — the accept loop then closes every connection
// it accepted — drains the inbox until every reader has exited, and waits for
// the workers. It is idempotent, and a failed Start calls it.
func (c *TCPCluster) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if !c.started {
		return nil // nothing bound
	}
	err := c.ln.Close()
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
	c.workerWG.Wait()
	return err
}

// runWorker runs worker id over a tcpLink: dial and say hello, then the
// worker loop until the server hangs up.
func (c *TCPCluster) runWorker(addr string, id int) error {
	w, err := newClusterWorker(id, &c.cfg, &c.rounds)
	if err != nil {
		return err
	}
	l := &tcpLink{c: c, addr: addr, id: id, dim: w.replica.NumParams()}
	if err := l.dialHello(0); err != nil {
		return err
	}
	return w.run(l)
}

// tcpLink is a stream worker's link: one connection to the server, replaced
// after every crash by a fresh one.
type tcpLink struct {
	c       *TCPCluster
	conn    *transport.TCPConn
	addr    string
	id, dim int
}

// dialHello dials the server through the backoff ladder and opens the
// connection with the hello: the worker's id, the round it joins at (0 at
// startup, its scheduled rejoin round after a crash) and, in the Loss field,
// how many dial attempts the connect took. The gradient payload is a
// helloDim-coordinate placeholder the server discards.
func (l *tcpLink) dialHello(step int) error {
	conn, attempts, err := dialWithBackoff("connection", l.addr, func() (*transport.TCPConn, error) {
		return transport.DialTCP(l.addr, l.c.cfg.Codec)
	})
	if err != nil {
		return err
	}
	hello := &transport.GradientMsg{Worker: l.id, Step: step, Loss: float64(attempts), Grad: tensor.NewVector(helloDim)}
	if err := conn.SendGradient(hello); err != nil {
		conn.Close()
		return err
	}
	conn.SetExpectDim(l.dim)
	l.conn = conn
	return nil
}

func (l *tcpLink) next(params tensor.Vector) (int, tensor.Vector, error) {
	step, err := l.conn.RecvModel(params)
	if s, ok := l.c.testAbruptClose[l.id]; ok && step == s {
		err = net.ErrClosed // test hook: vanish between broadcast and submit
	}
	return step, params, err
}

// crash closes the connection without a goodbye and dials back at once with
// a hello for the rejoin round, which the server holds until that round.
func (l *tcpLink) crash(rejoin int) error {
	l.conn.Close()
	return l.dialHello(rejoin)
}

// send writes the whole gradient: a stream drops nothing.
func (l *tcpLink) send(sub *transport.GradientMsg, _ []bool) error { return l.conn.SendGradient(sub) }

func (l *tcpLink) close() { l.conn.Close() }
