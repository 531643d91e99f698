package core

import (
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/data"
	"aggregathor/internal/nn"
	"aggregathor/internal/ps"
	"aggregathor/internal/simnet"
	"aggregathor/internal/tensor"
)

// countingDeployment is a deployment whose rounds do nothing but count, and
// poison the model with a NaN at round nanAt (never when 0).
type countingDeployment struct {
	net                *nn.Network
	steps, paramsCalls int
	nanAt              int
}

func (c *countingDeployment) Step() (*ps.StepResult, error) {
	c.steps++
	if c.steps == c.nanAt {
		c.net.Params()[0] = math.NaN()
	}
	return &ps.StepResult{Received: 1}, nil
}

func (c *countingDeployment) Model() *nn.Network { return c.net }

func (c *countingDeployment) Params() tensor.Vector {
	c.paramsCalls++
	return c.net.ParamsVector()
}

func (c *countingDeployment) SetParams(tensor.Vector) error { return nil }

// TestRunTrainingReadsParamsOnce: the per-round divergence check reads the
// live store, so a run copies the parameters once, for its result, however
// many rounds it has — and still stops at the first non-finite round.
func TestRunTrainingReadsParamsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	test := &data.Dataset{X: tensor.NewMatrix(4, 3), Y: []int{0, 1, 0, 1}}
	cfg := Config{Steps: 20, EvalEvery: 5}
	for _, nanAt := range []int{0, 7} {
		cl := &countingDeployment{net: nn.NewMLP(3, []int{4}, 2, rng), nanAt: nanAt}
		var round simnet.Round
		res := new(Result)
		if err := runTraining(cfg, cl, test, round, res); err != nil {
			t.Fatal(err)
		}
		if cl.paramsCalls != 1 {
			t.Fatalf("nanAt %d: %d Params() calls over %d rounds, want 1", nanAt, cl.paramsCalls, cl.steps)
		}
		wantSteps, diverged := cfg.Steps, false
		if nanAt > 0 {
			wantSteps, diverged = nanAt, true
		}
		if cl.steps != wantSteps || res.Diverged != diverged {
			t.Fatalf("nanAt %d: %d rounds, diverged %v; want %d, %v", nanAt, cl.steps, res.Diverged, wantSteps, diverged)
		}
	}
}
