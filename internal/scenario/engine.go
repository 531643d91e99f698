package scenario

import (
	"fmt"
	"runtime"
	"sync"

	"aggregathor/internal/core"
	"aggregathor/internal/ps"
)

// Result is the structured outcome of one campaign run. Every field is a
// deterministic function of the spec and the run seed (aggregation cost comes
// from the analytic simnet model, never the host's wall clock), which is what
// makes campaign JSON byte-reproducible.
type Result struct {
	Run Run `json:"run"`

	// FinalAccuracy is the last test-set evaluation.
	FinalAccuracy float64 `json:"finalAccuracy"`
	// FinalLoss is the mean honest training loss at the last evaluation.
	FinalLoss float64 `json:"finalLoss"`
	// StepsToThreshold is the first model-update index whose evaluation
	// reached the spec's accuracy threshold; -1 if never reached.
	StepsToThreshold int `json:"stepsToThreshold"`
	// SimTimeToThresholdNS is the simulated time of that evaluation in
	// nanoseconds; -1 if never reached.
	SimTimeToThresholdNS int64 `json:"simTimeToThresholdNs"`
	// AggTimePerRoundNS is the server-side aggregation cost per round from
	// the analytic model, in nanoseconds.
	AggTimePerRoundNS int64 `json:"aggTimePerRoundNs"`
	// RoundTimeNS is the full simulated round duration in nanoseconds.
	RoundTimeNS int64 `json:"roundTimeNs"`
	// Totals are the run's round counters; those omitted when zero keep
	// campaign JSON from before their axes byte-identical.
	ps.Totals
	// RoundsPerSec is the effective model-update rate against the simulated
	// clock — aggregated (non-skipped) rounds per simulated second. Only
	// reported for asynchronous cells, where it is the headline readout:
	// a lockstep cell gated by slow workers skips rounds, a quorum cell
	// keeps aggregating without them.
	RoundsPerSec float64 `json:"roundsPerSec,omitempty"`
	// Diverged is true when the model parameters went non-finite.
	Diverged bool `json:"diverged"`
	// Hijacked is true when a remote parameter write succeeded.
	Hijacked bool `json:"hijacked"`
	// Error records an infeasible run (e.g. n below the GAR's minimum for
	// the declared f) instead of aborting the campaign.
	Error string `json:"error,omitempty"`
}

// Campaign is a fully executed spec: the expanded runs in expansion order,
// each with its result.
type Campaign struct {
	Spec    Spec     `json:"spec"`
	Results []Result `json:"results"`
}

// Execute expands the spec and runs every cell on a bounded worker pool.
// Results are ordered by expansion index regardless of completion order. An
// infeasible cell records its error in the result; only spec-level problems
// return an error.
func Execute(s Spec) (*Campaign, error) {
	s.ApplyDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	runs := s.Expand()
	if len(runs) == 0 {
		return nil, fmt.Errorf("scenario: spec %q expands to zero runs", s.Name)
	}
	par := s.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par > len(runs) {
		par = len(runs)
	}
	results := make([]Result, len(runs))
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = executeRun(&s, runs[i])
		}(i)
	}
	wg.Wait()
	// Parallelism is an execution knob, not a sweep axis: strip it from the
	// echoed spec so the pool size can never leak into the byte-reproducible
	// campaign JSON.
	s.Parallelism = 0
	return &Campaign{Spec: s, Results: results}, nil
}

// executeRun maps one campaign cell onto a core experiment and distils the
// run's series into the structured result.
func executeRun(s *Spec, r Run) Result {
	out := Result{Run: r, StepsToThreshold: -1, SimTimeToThresholdNS: -1}

	res, err := core.Run(s.cellConfig(r))
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.FinalAccuracy = res.FinalAccuracy
	if p, ok := res.LossVsStep.Last(); ok {
		out.FinalLoss = p.Value
	}
	if step, ok := res.Accuracy.StepToValue(s.Threshold); ok {
		out.StepsToThreshold = step
	}
	if t, ok := res.Accuracy.TimeToValue(s.Threshold); ok {
		out.SimTimeToThresholdNS = t.Nanoseconds()
	}
	out.AggTimePerRoundNS = res.Breakdown.Aggregation.Nanoseconds()
	out.RoundTimeNS = res.Breakdown.Total().Nanoseconds()
	out.Totals = res.Totals
	// The effective round rate is only reported for asynchronous cells so
	// pre-async campaign JSON stays byte-identical. It divides aggregated
	// (non-skipped) rounds by total simulated time: a lockstep cell gated by
	// a slow schedule loses rounds to the quorum check, an async quorum cell
	// keeps updating — the contrast this axis exists to show.
	if r.Network.AsyncConfig.Enabled() && s.Steps > 0 && out.RoundTimeNS > 0 {
		simSeconds := float64(s.Steps) * float64(out.RoundTimeNS) * 1e-9
		out.RoundsPerSec = float64(s.Steps-res.SkippedRounds) / simSeconds
	}
	out.Diverged = res.Diverged
	out.Hijacked = res.Hijacked
	return out
}
