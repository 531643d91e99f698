package core

import (
	"aggregathor/internal/data"
	"aggregathor/internal/simnet"
)

// runTraining drives cfg.Steps synchronous rounds of cl against the simulated
// clock, recording the accuracy/loss/throughput series into res, stopping a
// run whose parameters went non-finite (vanilla TensorFlow's fate under
// attack) and checkpointing every CheckpointEvery rounds. It is the single
// training loop behind every deployment. The divergence check reads the
// evaluation replica's live store; cl.Params would copy d floats a round.
func runTraining(cfg Config, cl deployment, test *data.Dataset, round simnet.Round, res *Result) error {
	var clock simnet.Clock
	evaluate := func(step int, loss float64) {
		acc := cl.Model().Accuracy(test.X, test.Y)
		res.Accuracy.Add(clock.Now(), step, acc)
		res.LossVsStep.Add(clock.Now(), step, loss)
		res.FinalAccuracy = acc
	}
	evaluate(0, 0)
	for step := 0; step < cfg.Steps; step++ {
		sr, err := cl.Step()
		if err != nil {
			return err
		}
		clock.Advance(round.Total())
		res.Throughput.Observe(sr.Received, round.Total())
		res.Totals.Add(sr)
		for _, o := range sr.Slots {
			res.slots = (res.slots ^ uint64(o)) * 1099511628211
		}
		if sr.Hijacked {
			res.Hijacked = true
		}
		if !cl.Model().Params().IsFinite() {
			res.Diverged = true
			break
		}
		if (step+1)%cfg.EvalEvery == 0 || step == cfg.Steps-1 {
			evaluate(step+1, sr.Loss)
		}
		if cfg.CheckpointEvery > 0 && (step+1)%cfg.CheckpointEvery == 0 {
			if err := cfg.checkpoint(cl, res.ResumedFromStep+step+1); err != nil {
				return err
			}
		}
	}
	res.params = cl.Params()
	return nil
}
