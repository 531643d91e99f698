package ps

import (
	"fmt"
	"math/rand"
)

// AsyncConfig describes the asynchronous bounded-staleness round mode: the
// server aggregates as soon as a quorum of fresh-enough gradients is in,
// instead of blocking on all n slots. "Fresh enough" means tagged at most
// Staleness steps behind the current round; which workers lag (and by how
// much) is decided by the deterministic SlowSeed schedule, evaluated at both
// endpoints, so the admitted-gradient set per aggregation is a pure function
// of the run seed. The zero value means lockstep: every worker fresh, every
// slot required — byte-identical to a run without the mode. The JSON names
// are a campaign network cell's keys (scenario.Network embeds this type).
type AsyncConfig struct {
	// Quorum is the minimum number of gradients (fresh or admitted-stale)
	// that must reach the server for the round to aggregate; rounds below
	// quorum are skipped. 0 means n (all slots), i.e. lockstep strictness.
	Quorum int `json:"quorum,omitempty"`

	// Staleness is the bound τ: a gradient tagged up to τ steps behind the
	// current round is admitted (and counted), older ones are dropped and
	// counted. 0 admits only fresh gradients.
	Staleness int `json:"staleness,omitempty"`

	// SlowRate is the per-(step, worker) probability that the SlowSeed
	// schedule marks a worker slow this round. A slow worker trains on a
	// model it retained 1..τ steps ago and submits with that older tag; a
	// worker whose scheduled lag exceeds τ sits the round out entirely.
	SlowRate float64 `json:"slowWorkers,omitempty"`
}

// Enabled reports whether any asynchronous behaviour is configured.
func (a AsyncConfig) Enabled() bool {
	return a.Quorum > 0 || a.Staleness > 0 || a.SlowRate > 0
}

// Validate checks the configuration against the cluster size.
func (a AsyncConfig) Validate(workers int) error {
	if a.Quorum < 0 {
		return fmt.Errorf("ps: Quorum must be >= 0, got %d", a.Quorum)
	}
	if a.Quorum > workers {
		return fmt.Errorf("ps: Quorum %d exceeds worker count %d", a.Quorum, workers)
	}
	if a.Staleness < 0 {
		return fmt.Errorf("ps: Staleness must be >= 0, got %d", a.Staleness)
	}
	if a.SlowRate < 0 || a.SlowRate >= 1 {
		return fmt.Errorf("ps: SlowRate must be in [0, 1), got %v", a.SlowRate)
	}
	if a.SlowRate > 0 && a.Staleness == 0 {
		return fmt.Errorf("ps: SlowRate %v needs Staleness >= 1 (a slow worker lags at least one step)", a.SlowRate)
	}
	return nil
}

// EffectiveQuorum resolves the configured quorum against the cluster size:
// 0 means every slot.
func (a AsyncConfig) EffectiveQuorum(workers int) int {
	if a.Quorum == 0 {
		return workers
	}
	return a.Quorum
}

// lag draws the slow-worker schedule for one (step, worker): 0 is fresh, k >= 1
// trains on the model of step step-k, clamped to the steps that exist. The
// draw is keyed on SlowSeed, so both endpoints agree without communicating,
// and may exceed Staleness by one: ExpectedTag reports that slot dropped. rng
// is caller-owned scratch, reseeded per draw, so the planner allocates nothing.
func (a AsyncConfig) lag(rng *rand.Rand, runSeed int64, step, worker int) int {
	if a.SlowRate <= 0 || step == 0 {
		return 0
	}
	rng.Seed(SlowSeed(runSeed, step, worker))
	if rng.Float64() >= a.SlowRate {
		return 0
	}
	lag := 1 + rng.Intn(a.Staleness+1)
	if lag > step {
		lag = step
	}
	return lag
}

// ExpectedTag resolves the schedule to the step tag worker's gradient will
// carry this round, or -1 when the scheduled lag exceeds the staleness bound
// — that worker sits the round out (no sample, no compute, no send) and the
// server counts the slot as dropped-too-stale without waiting for it.
func (a AsyncConfig) ExpectedTag(runSeed int64, step, worker int) int {
	return a.expectedTag(rand.New(rand.NewSource(runSeed)), runSeed, step, worker)
}

func (a AsyncConfig) expectedTag(rng *rand.Rand, runSeed int64, step, worker int) int {
	lag := a.lag(rng, runSeed, step, worker)
	if lag > a.Staleness {
		return -1
	}
	return step - lag
}

// Admission classifies one gradient arrival against the round plan (see
// Round.Offer).
type Admission int

const (
	// AdmitFresh admits a gradient tagged with the current round.
	AdmitFresh Admission = iota
	// AdmitStale admits a gradient tagged within the staleness bound, as
	// scheduled for that worker.
	AdmitStale
	// RejectDuplicate rejects an arrival for a slot that is already settled.
	RejectDuplicate
	// RejectTooStale rejects a tag older than the staleness bound.
	RejectTooStale
	// RejectWrongTag rejects a tag inside the staleness window that does not
	// match the worker's scheduled tag (or any future tag), and any tag for
	// a slot the schedules took out of the round.
	RejectWrongTag
	// RejectUnknownWorker rejects a worker id outside [0, n).
	RejectUnknownWorker
	// RejectMalformed rejects a gradient, or a packet claiming a gradient,
	// of a dimension other than the model's.
	RejectMalformed
)

// Admitted reports whether the verdict let the arrival into the round.
func (a Admission) Admitted() bool { return a == AdmitFresh || a == AdmitStale }

// String renders the admission verdict for diagnostics.
func (a Admission) String() string {
	switch a {
	case AdmitFresh:
		return "admit-fresh"
	case AdmitStale:
		return "admit-stale"
	case RejectDuplicate:
		return "reject-duplicate"
	case RejectTooStale:
		return "reject-too-stale"
	case RejectWrongTag:
		return "reject-wrong-tag"
	case RejectUnknownWorker:
		return "reject-unknown-worker"
	case RejectMalformed:
		return "reject-malformed"
	default:
		return fmt.Sprintf("admission(%d)", int(a))
	}
}
