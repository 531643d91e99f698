package cluster

import (
	"fmt"
	"time"

	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// Worker churn plumbing shared by both socket backends: the bounded
// retry/backoff reconnect dialers a crashed worker comes back through, and
// the TCP rejoin handshake frame. The schedule itself (who crashes when, who
// rejoins when) lives in ps.ChurnConfig and is evaluated at both endpoints;
// nothing here draws randomness.

// Reconnect backoff ladder: a deterministic doubling schedule from
// reconnectBaseDelay, capped at reconnectMaxDelay, for at most
// reconnectMaxAttempts dials. On the scheduled path the first dial succeeds
// (the server's listener outlives every scheduled downtime), so the ladder
// only pays out when something is genuinely wrong — and then it terminates
// loudly instead of retrying forever.
const (
	reconnectMaxAttempts = 5
	reconnectBaseDelay   = 10 * time.Millisecond
	reconnectMaxDelay    = 500 * time.Millisecond
)

// dialWithBackoff dials through the bounded backoff ladder and reports how
// many attempts the connect took — the count the TCP rejoin handshake
// carries to the server.
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

// dialTCPWithBackoff redials the server's listener.
func dialTCPWithBackoff(addr string, codec transport.Codec) (*transport.TCPConn, int, error) {
	return dialWithBackoff("connection", addr, func() (*transport.TCPConn, error) {
		return transport.DialTCP(addr, codec)
	})
}

// dialUDPWithBackoff re-dials the worker's gradient sender toward the
// server's gradient endpoint. UDP "connects" locally, so on any healthy host
// the first attempt succeeds — the ladder guards against transient local
// socket exhaustion.
func dialUDPWithBackoff(addr string, codec transport.Codec, mtu int) (*transport.UDPSender, int, error) {
	return dialWithBackoff("gradient sender", addr, func() (*transport.UDPSender, error) {
		// Gradient loss is injected by the shared schedule, not the
		// sender's own rng: drop rate 0, as on the Start dial path.
		//aggrevet:lineage drop rate 0: the sender's rng is never drawn, loss comes from the shared seeded schedule
		return transport.DialUDP(addr, codec, mtu, 0, 0)
	})
}

// rejoinHelloDim is the rejoin handshake's placeholder gradient dimension,
// and the only one a rejoining connection may carry until a round admits it.
const rejoinHelloDim = 1

// rejoinHello builds the handshake frame a reconnecting TCP worker sends
// first on its fresh connection: its id, the step it is scheduled to rejoin
// at, and (in the Loss field) how many dial attempts the reconnect took.
// The gradient payload is a rejoinHelloDim-coordinate placeholder — the
// server reads the metadata and discards the frame; it never reaches
// aggregation.
func rejoinHello(worker, rejoinStep, attempts int) *transport.GradientMsg {
	return &transport.GradientMsg{
		Worker: worker,
		Step:   rejoinStep,
		Loss:   float64(attempts),
		Grad:   tensor.NewVector(rejoinHelloDim),
	}
}
