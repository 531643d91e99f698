// Package draco implements the Draco baseline (Chen et al. 2018) that the
// paper compares against: Byzantine resilience through algorithmic
// redundancy instead of robust aggregation. Workers form ⌊n/r⌋ disjoint
// groups of r = 2f+1, every group evaluates one shared mini-batch, and the
// parameter server majority-votes each group, so a correct result survives
// as long as at most f group members lie. This is Draco's repetition scheme,
// the one the paper runs ("it gives better results than the cyclic one"); a
// Plan is a gar.GAR, so the baseline runs on the ordinary round engine.
//
// The paper's critique, reproduced here: Draco requires (a) r× more gradient
// computation per step, (b) agreement on dataset ordering (workers in a
// group must see the same data points), which breaks learning on private
// data, and (c) a decode pass that is linear in n.
package draco

import (
	"errors"
	"fmt"
	"sort"

	"aggregathor/internal/gar"
	"aggregathor/internal/tensor"
)

// Plan describes a Draco deployment: n workers tolerating f Byzantine ones
// with redundancy r = 2f+1.
type Plan struct {
	n, f int
}

// NewPlan validates and returns a Draco plan. Draco requires n ≥ 2f+1.
func NewPlan(n, f int) (*Plan, error) {
	if f < 0 {
		return nil, fmt.Errorf("draco: f must be non-negative, got %d", f)
	}
	r := 2*f + 1
	if n < r {
		return nil, fmt.Errorf("draco: n=%d < required 2f+1=%d", n, r)
	}
	return &Plan{n: n, f: f}, nil
}

// Redundancy returns r = 2f+1, the per-batch computation multiplier.
func (p *Plan) Redundancy() int { return 2*p.f + 1 }

// NumGroups returns the number of voting groups (= distinct mini-batches
// evaluated per step): ⌊n/r⌋.
func (p *Plan) NumGroups() int { return p.n / p.Redundancy() }

// WorkerLoad returns how many mini-batch gradients worker w computes per
// step: 1 for a group member, 0 for a worker left over once the groups are
// full.
func (p *Plan) WorkerLoad(w int) int {
	if w < 0 || w >= p.NumGroups()*p.Redundancy() {
		return 0
	}
	return 1
}

// ErrNoMajority is wrapped when some group has no value submitted by a
// strict majority of its members — more than f liars, outside the Draco
// contract.
var ErrNoMajority = errors.New("draco: no majority in group")

// Decoded is the result of one Draco decode pass.
type Decoded struct {
	// Gradient is the average of the per-group majority gradients.
	Gradient tensor.Vector
	// SuspectWorkers lists worker ids whose submission disagreed with
	// their group majority — detected Byzantine behaviour, a capability
	// robust GARs do not have.
	SuspectWorkers []int
}

// Decode majority-votes each group and averages the winners. grads[w] is
// worker w's submission, in id order (a leftover worker's slot, if present,
// is ignored); a nil vector means the member did not report (counted as
// disagreeing), and fewer than NumGroups()·r slots wrap
// gar.ErrTooFewWorkers. Voting is exact-match on the bit pattern: correct
// members computed on identical data with identical parameters, so honest
// submissions agree bit-for-bit.
func (p *Plan) Decode(grads []tensor.Vector) (*Decoded, error) {
	r, groups := p.Redundancy(), p.NumGroups()
	if len(grads) < groups*r {
		return nil, fmt.Errorf("draco: %w: %d groups of %d need %d gradients, got %d",
			gar.ErrTooFewWorkers, groups, r, groups*r, len(grads))
	}
	var winners []tensor.Vector
	suspects := map[int]bool{}
	for first := 0; first < groups*r; first += r {
		subs := grads[first : first+r] // a group is a run of r consecutive ids
		counts := map[uint64][]int{}   // vector fingerprint -> member slots
		for slot, v := range subs {
			if v == nil {
				continue
			}
			fp := v.Fingerprint()
			counts[fp] = append(counts[fp], slot)
		}
		need := p.f + 1 // strict majority of r = 2f+1
		var winSlots []int
		for _, slots := range counts {
			if len(slots) >= need {
				winSlots = slots
				break
			}
		}
		if winSlots == nil {
			return nil, fmt.Errorf("%w %d (need %d matching of %d)", ErrNoMajority, first/r, need, r)
		}
		winners = append(winners, subs[winSlots[0]])
		agreed := map[int]bool{}
		for _, s := range winSlots {
			agreed[s] = true
		}
		for slot := range subs {
			if !agreed[slot] {
				suspects[first+slot] = true
			}
		}
	}
	out := &Decoded{Gradient: tensor.Mean(winners)}
	for w := range suspects {
		out.SuspectWorkers = append(out.SuspectWorkers, w)
	}
	sort.Ints(out.SuspectWorkers)
	return out, nil
}

// A plan is a gradient aggregation rule: redundancy plus a per-group
// majority vote is a first aggregation stage over the id-ordered submissions
// of an ordinary parameter-server round, whose workers sample their group's
// shared batch (data.GroupSampler) and whose leftover workers stay silent.

// Name implements gar.GAR.
func (p *Plan) Name() string { return "draco" }

// F implements gar.ByzantineInfo.
func (p *Plan) F() int { return p.f }

// MinWorkers implements gar.ByzantineInfo: one full group.
func (p *Plan) MinWorkers() int { return p.Redundancy() }

// AggregateInto implements gar.GAR: it decodes the round's id-ordered
// gradients (the leftover workers submit nothing). The vote is not a
// workspace kernel: it leaves ws alone and returns a fresh vector. A round
// that cannot be decoded — a member's gradient missing, a group without a
// majority — wraps gar.ErrTooFewWorkers, which a server skips on.
func (p *Plan) AggregateInto(_ *gar.Workspace, grads []tensor.Vector) (tensor.Vector, error) {
	dec, err := p.Decode(grads)
	if errors.Is(err, ErrNoMajority) {
		return nil, fmt.Errorf("%w: %w", gar.ErrTooFewWorkers, err)
	}
	if err != nil {
		return nil, err
	}
	return dec.Gradient, nil
}
