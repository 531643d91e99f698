// Package gar implements the gradient aggregation rules (GARs) at the heart
// of the AggregaThor paper: the weakly Byzantine-resilient MULTI-KRUM rule,
// the strongly Byzantine-resilient BULYAN rule, and the comparison baselines
// (plain averaging, coordinate-wise median, trimmed mean, selective
// averaging).
//
// A GAR maps the n gradient estimates submitted by the workers at one
// synchronous step to the single gradient the parameter server applies
// (Equation 4 in the paper). Byzantine workers may submit arbitrary vectors,
// including vectors containing NaN or ±Inf coordinates; every rule in this
// package is total over such inputs — non-finite coordinates saturate
// distances to +Inf so poisoned gradients rank as maximally distant rather
// than derailing the selection.
package gar

import (
	"errors"
	"fmt"

	"aggregathor/internal/tensor"
)

// GAR is a gradient aggregation rule. Aggregate must not mutate the input
// gradients and must return a fresh vector.
type GAR interface {
	// Name returns the registry name of the rule (e.g. "multi-krum").
	Name() string
	// Aggregate combines n worker gradients into the applied gradient.
	// It returns an error when the input set violates the rule's
	// requirements (e.g. n too small for the declared f).
	Aggregate(grads []tensor.Vector) (tensor.Vector, error)
}

// ByzantineInfo is implemented by rules that tolerate a declared number of
// Byzantine workers.
type ByzantineInfo interface {
	// F returns the number of Byzantine workers the rule was configured
	// to tolerate.
	F() int
	// MinWorkers returns the smallest n for which the rule is defined at
	// its configured f.
	MinWorkers() int
}

// ErrTooFewWorkers is wrapped by Aggregate when n is below the rule's
// requirement for its configured f.
var ErrTooFewWorkers = errors.New("gar: too few workers for configured f")

// ErrNoGradients is returned when Aggregate is called with no gradients.
var ErrNoGradients = errors.New("gar: no gradients to aggregate")

// checkF is the f ≥ 0 rule: New applies it at construction, checkTolerance
// on every aggregation (a rule built as a struct literal never saw New).
func checkF(name string, f int) error {
	if f < 0 {
		return fmt.Errorf("gar: %s requires f >= 0, got %d", name, f)
	}
	return nil
}

// checkTolerance is the one copy of the rules on a declared tolerance — a
// rule's ByzantineInfo, passed as plain numbers so that a value-typed rule is
// not boxed on every aggregation: f ≥ 0, and the n submitted gradients are
// at least minWorkers. name and param spell the rule and its parameter in
// the messages.
func checkTolerance(name, param string, f, minWorkers, n int) error {
	if err := checkF(name, f); err != nil {
		return err
	}
	if n < minWorkers {
		return fmt.Errorf("%w: %s(%s=%d) needs n >= %d, got %d",
			ErrTooFewWorkers, name, param, f, minWorkers, n)
	}
	return nil
}

func checkUniform(grads []tensor.Vector) error {
	if len(grads) == 0 {
		return ErrNoGradients
	}
	d := grads[0].Dim()
	for i, g := range grads {
		if g.Dim() != d {
			return fmt.Errorf("gar: gradient %d has dimension %d, want %d", i, g.Dim(), d)
		}
	}
	return nil
}

// Average is the non-Byzantine-resilient baseline GAR: the coordinate-wise
// mean of all submitted gradients. This mirrors vanilla TensorFlow's
// tf.train.SyncReplicasOptimizer behaviour.
type Average struct{}

// Name implements GAR.
func (Average) Name() string { return "average" }

// Aggregate implements GAR.
func (a Average) Aggregate(grads []tensor.Vector) (tensor.Vector, error) {
	return aggregateFresh(a, grads)
}

// AggregateInto implements WorkspaceGAR.
func (Average) AggregateInto(ws *Workspace, grads []tensor.Vector) (tensor.Vector, error) {
	if err := checkUniform(grads); err != nil {
		return nil, err
	}
	out := ws.ensureOut(grads[0].Dim())
	tensor.MeanInto(out, grads)
	return out, nil
}

// SelectiveAverage is the §3.3 "selective averaging" rule: a coordinate-wise
// mean that skips NaN coordinates. It tolerates lossy transports that mark
// lost coordinates with NaN, but is NOT Byzantine-resilient.
type SelectiveAverage struct{}

// Name implements GAR.
func (SelectiveAverage) Name() string { return "selective-average" }

// Aggregate implements GAR.
func (s SelectiveAverage) Aggregate(grads []tensor.Vector) (tensor.Vector, error) {
	return aggregateFresh(s, grads)
}

// AggregateInto implements WorkspaceGAR: the NaN-skipping mean runs on the
// blocked column engine, tiled and parallel over coordinate ranges.
func (SelectiveAverage) AggregateInto(ws *Workspace, grads []tensor.Vector) (tensor.Vector, error) {
	if err := checkUniform(grads); err != nil {
		return nil, err
	}
	out := ws.ensureOut(grads[0].Dim())
	ws.cols.Run(out, grads, 0, tensor.NaNMeanKernel)
	return out, nil
}

// Median is the coordinate-wise median rule evaluated in the paper as the
// alternative weakly Byzantine-resilient GAR (Xie et al. 2018). It uses only
// "one gradient" of information per coordinate, which raises estimator
// variance — the cause of its small-batch convergence failure in Figure 3.
type Median struct{}

// Name implements GAR.
func (Median) Name() string { return "median" }

// Aggregate implements GAR.
func (m Median) Aggregate(grads []tensor.Vector) (tensor.Vector, error) {
	return aggregateFresh(m, grads)
}

// AggregateInto implements WorkspaceGAR: the median is the middle row of
// each tile the blocked column engine sorts.
func (Median) AggregateInto(ws *Workspace, grads []tensor.Vector) (tensor.Vector, error) {
	if err := checkUniform(grads); err != nil {
		return nil, err
	}
	out := ws.ensureOut(grads[0].Dim())
	ws.cols.Run(out, grads, 0, tensor.MedianKernel)
	return out, nil
}

// TrimmedMean is the coordinate-wise trimmed mean rule (Yin et al. 2018):
// drop the b largest and b smallest values per coordinate, average the rest.
type TrimmedMean struct {
	// Beta is the per-side trim count b; the rule requires n > 2b.
	Beta int
}

// Name implements GAR.
func (t TrimmedMean) Name() string { return "trimmed-mean" }

// F implements ByzantineInfo: a trim of b per side tolerates b Byzantine
// workers.
func (t TrimmedMean) F() int { return t.Beta }

// MinWorkers implements ByzantineInfo.
func (t TrimmedMean) MinWorkers() int { return 2*t.Beta + 1 }

// Aggregate implements GAR.
func (t TrimmedMean) Aggregate(grads []tensor.Vector) (tensor.Vector, error) {
	return aggregateFresh(t, grads)
}

// AggregateInto implements WorkspaceGAR: the kept window is rows b…n−b−1 of
// each tile the blocked column engine sorts, added in ascending order.
func (t TrimmedMean) AggregateInto(ws *Workspace, grads []tensor.Vector) (tensor.Vector, error) {
	if err := checkUniform(grads); err != nil {
		return nil, err
	}
	if err := checkTolerance("trimmed-mean", "b", t.Beta, t.MinWorkers(), len(grads)); err != nil {
		return nil, err
	}
	out := ws.ensureOut(grads[0].Dim())
	ws.cols.Run(out, grads, t.Beta, tensor.TrimmedMeanKernel)
	return out, nil
}
