package cluster

import (
	"fmt"
	"time"

	"aggregathor/internal/transport"
)

// Worker churn plumbing shared by both socket backends: the bounded
// retry/backoff ladder a worker dials through (a TCP worker at startup too,
// see dialHello) and the UDP reconnect dialer. The schedule itself (who
// crashes when, who rejoins when) lives in ps.ChurnConfig and is evaluated
// at both endpoints; nothing here draws randomness.

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
