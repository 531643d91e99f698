package gar

import (
	"fmt"

	"aggregathor/internal/tensor"
)

// MultiKrum implements the MULTI-KRUM rule from the paper (§2.3 and the
// appendix): each gradient is scored by the sum of squared distances to its
// n−f−2 closest neighbours, and the rule returns the average of the m
// smallest-scoring gradients.
//
// Requirements (Theorem 1): n ≥ 2f+3 and 1 ≤ m ≤ n−f−2 for weak Byzantine
// resilience. With m = 1 this is the original Krum rule of Blanchard et al.
//
// The distance computation — the O(n²d) hot path — runs on the cache-
// blocked engine (BlockedPairwiseSquaredDistances): coordinate blocks swept
// once across the whole upper triangle, parallel over block indexes,
// matching the paper's "fast, memory scarce implementation ... fully
// parallelizing each of the computational-heavy steps".
type MultiKrum struct {
	// NumByzantine is f, the number of Byzantine workers tolerated.
	NumByzantine int
	// M is the selection size m. If 0, the maximal safe value n−f−2 is
	// used at aggregation time ("adaptive" Multi-Krum); a negative M is
	// out of range like any other m < 1.
	M int
}

// NewMultiKrum returns a MULTI-KRUM rule tolerating f Byzantine workers with
// the adaptive (maximal) selection size m = n−f−2.
func NewMultiKrum(f int) *MultiKrum { return &MultiKrum{NumByzantine: f} }

// NewKrum returns the original Krum rule (m = 1) tolerating f Byzantine
// workers.
func NewKrum(f int) *MultiKrum { return &MultiKrum{NumByzantine: f, M: 1} }

// Name implements GAR.
func (k *MultiKrum) Name() string {
	if k.M == 1 {
		return "krum"
	}
	return "multi-krum"
}

// F implements ByzantineInfo.
func (k *MultiKrum) F() int { return k.NumByzantine }

// MinWorkers implements ByzantineInfo: MULTI-KRUM requires n ≥ 2f+3.
func (k *MultiKrum) MinWorkers() int { return 2*k.NumByzantine + 3 }

// EffectiveM returns the selection size used for n workers: the configured M,
// or the maximal safe value n−f−2 when M is 0.
func (k *MultiKrum) EffectiveM(n int) int {
	if k.M != 0 {
		return k.M
	}
	return n - k.NumByzantine - 2
}

// Aggregate implements GAR.
func (k *MultiKrum) Aggregate(grads []tensor.Vector) (tensor.Vector, error) {
	return aggregateFresh(k, grads)
}

// AggregateInto implements WorkspaceGAR: blocked distances, selection-based
// scoring and the selected-set mean all run on workspace buffers.
func (k *MultiKrum) AggregateInto(ws *Workspace, grads []tensor.Vector) (tensor.Vector, error) {
	sel, err := k.selectInto(ws, grads)
	if err != nil {
		return nil, err
	}
	picked := ws.ensurePicked(len(sel))
	for _, idx := range sel {
		//aggrevet:alloc appends into ensurePicked capacity; 0 steady-state allocs pinned by TestWorkspaceZeroSteadyStateAllocs
		picked = append(picked, grads[idx])
	}
	out := ws.ensureOut(grads[0].Dim())
	tensor.MeanInto(out, picked)
	return out, nil
}

// Select returns the indexes of the m smallest-scoring gradients, ordered by
// ascending score. It validates the n ≥ 2f+3 and m ≤ n−f−2 requirements.
func (k *MultiKrum) Select(grads []tensor.Vector) ([]int, error) {
	var ws Workspace
	return k.selectInto(&ws, grads)
}

// selectInto is Select on workspace buffers; the returned slice aliases ws.
func (k *MultiKrum) selectInto(ws *Workspace, grads []tensor.Vector) ([]int, error) {
	if err := checkUniform(grads); err != nil {
		return nil, err
	}
	n := len(grads)
	f := k.NumByzantine
	if err := checkTolerance("multi-krum", "f", f, k.MinWorkers(), n); err != nil {
		return nil, err
	}
	m := k.EffectiveM(n)
	if m < 1 || m > n-f-2 {
		return nil, fmt.Errorf("gar: multi-krum m=%d out of range [1, %d] for n=%d f=%d",
			m, n-f-2, n, f)
	}
	dist := BlockedPairwiseSquaredDistances(grads, ws)
	scores := krumScoresInto(ws, dist, n, f)
	return tensor.SmallestKInto(ws.ensureSelIdx(n), scores, m), nil
}
