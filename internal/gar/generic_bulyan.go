package gar

import (
	"fmt"
	"math"

	"aggregathor/internal/tensor"
)

// GenericBulyan is the paper's general BULYAN construction: "robustly
// aggregates n vectors by iterating several times over a second (underlying)
// Byzantine-resilient GAR. In each loop, BULYAN extracts the gradient(s)
// selected by the underlying GAR" — any weakly Byzantine-resilient rule can
// sit underneath, not just MULTI-KRUM.
//
// Each of the θ = n−2f iterations runs Inner on the remaining vectors and
// moves the remaining vector closest to Inner's output into the selection
// set; the second phase is the same coordinate-wise median/closest-average
// as the optimised Bulyan. The optimised implementation (type Bulyan)
// exploits MULTI-KRUM's structure to reuse the distance matrix; this generic
// form trades that for composability.
type GenericBulyan struct {
	// Inner is the underlying weakly Byzantine-resilient GAR.
	Inner GAR
	// NumByzantine is f; requires n ≥ 4f+3.
	NumByzantine int
}

// NewGenericBulyan wraps inner in the generic BULYAN loop.
func NewGenericBulyan(inner GAR, f int) *GenericBulyan {
	return &GenericBulyan{Inner: inner, NumByzantine: f}
}

// Name implements GAR.
func (b *GenericBulyan) Name() string {
	return fmt.Sprintf("bulyan[%s]", b.Inner.Name())
}

// F implements ByzantineInfo.
func (b *GenericBulyan) F() int { return b.NumByzantine }

// MinWorkers implements ByzantineInfo.
func (b *GenericBulyan) MinWorkers() int { return 4*b.NumByzantine + 3 }

// Aggregate implements GAR.
func (b *GenericBulyan) Aggregate(grads []tensor.Vector) (tensor.Vector, error) {
	return aggregateFresh(b, grads)
}

// AggregateInto implements WorkspaceGAR. The inner rule aggregates through
// the workspace's nested inner workspace, so the outer loop's shrinking
// candidate list and selection survive whatever buffers the underlying rule
// touches; each proposal aliases that inner workspace and is consumed before
// the next iteration overwrites it.
func (b *GenericBulyan) AggregateInto(ws *Workspace, grads []tensor.Vector) (tensor.Vector, error) {
	if b.Inner == nil {
		return nil, fmt.Errorf("gar: generic bulyan has no underlying GAR")
	}
	if err := checkUniform(grads); err != nil {
		return nil, err
	}
	n := len(grads)
	f := b.NumByzantine
	if err := checkTolerance("", "f", f, b.MinWorkers(), n); err != nil {
		// The composite's name is a Sprintf, so only a check that has
		// already failed spells it.
		return nil, checkTolerance(b.Name(), "f", f, b.MinWorkers(), n)
	}
	theta := n - 2*f
	remaining := ws.ensureRemaining(n)
	//aggrevet:alloc appends into ensureRemaining capacity; 0 steady-state allocs pinned by TestWorkspaceZeroSteadyStateAllocs
	remaining = append(remaining, grads...)
	selected := ws.ensurePicked(theta)
	inner := ws.ensureInner()
	for len(selected) < theta {
		proposal, err := AggregateInto(inner, b.Inner, remaining)
		if err != nil {
			// The shrinking set may fall below Inner's requirement
			// (e.g. multi-krum needs 2f+3); fall back to the
			// remaining set's coordinate median as the proposal,
			// which stays Byzantine-bounded.
			proposal = inner.ensureOut(grads[0].Dim())
			inner.cols.Run(proposal, remaining, 0, tensor.MedianKernel)
		}
		best, bestDist := -1, math.Inf(1)
		for i, v := range remaining {
			d := tensor.SquaredDistance(v, proposal)
			if d < bestDist || (d == bestDist && best >= 0 && lexLess(v, remaining[best])) {
				best, bestDist = i, d
			}
		}
		if best < 0 {
			best = 0 // every distance +Inf: all-poisoned remainder
		}
		//aggrevet:alloc appends into ensurePicked capacity; 0 steady-state allocs pinned by TestWorkspaceZeroSteadyStateAllocs
		selected = append(selected, remaining[best])
		//aggrevet:alloc element removal: the append writes into remaining's own backing array and never grows it
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return coordinateAggregateInto(ws, selected, theta-2*f), nil
}
