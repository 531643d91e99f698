package cluster

import "time"

// This file is the package's wall-clock seam: the ONLY place in
// internal/cluster allowed to read host time, and the only cluster file on
// aggrevet's wallclock allowlist. Round deadlines and reconnect pauses
// are liveness bounds — they decide when to stop waiting, never what a
// round computes: every recouped or skipped slot is settled by the seeded
// schedules (ps.DropSeed, ps.SlowSeed, ...), so results stay pure functions
// of the run seed even though these timers fire at host-dependent moments.
// New wall-clock needs in this package must thread through helpers here
// rather than call package time directly.

// roundDeadline returns the wall-clock instant at which the current
// collection round stops waiting for stragglers.
func roundDeadline(timeout time.Duration) time.Time {
	return time.Now().Add(timeout)
}

// untilDeadline returns how long remains before a roundDeadline instant.
func untilDeadline(deadline time.Time) time.Duration {
	return time.Until(deadline)
}

// newRoundTimer arms the round-timeout timer for a collection loop.
func newRoundTimer(timeout time.Duration) *time.Timer {
	return time.NewTimer(timeout)
}

// reconnectPause sleeps one rung of the reconnect backoff ladder — pacing
// between a crashed worker's dial attempts. Liveness only: which rounds a
// worker misses is decided by the churn schedule (ps.ChurnSeed), never by
// how long a reconnect took.
func reconnectPause(d time.Duration) {
	time.Sleep(d)
}
