// Package draco implements the Draco baseline (Chen et al. 2018) that the
// paper compares against: Byzantine resilience through algorithmic
// redundancy instead of robust aggregation. Every mini-batch is evaluated by
// r = 2f+1 workers and the parameter server majority-votes each group, so a
// correct result survives as long as at most f group members lie.
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

// Scheme selects the redundant assignment topology.
type Scheme int

const (
	// Repetition partitions workers into ⌊n/r⌋ disjoint groups; each
	// group evaluates one shared mini-batch. The paper reports this as
	// the better-performing variant ("we use the repetition method
	// because it gives better results than the cyclic one").
	Repetition Scheme = iota
	// Cyclic assigns batch g to workers g, g+1, …, g+r−1 (mod n): n
	// overlapping groups, every worker computes r gradients.
	Cyclic
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Repetition:
		return "repetition"
	case Cyclic:
		return "cyclic"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Plan describes a Draco deployment: n workers tolerating f Byzantine ones
// with redundancy r = 2f+1.
type Plan struct {
	n, f   int
	scheme Scheme
}

// NewPlan validates and returns a Draco plan. Draco requires n ≥ 2f+1.
func NewPlan(n, f int, scheme Scheme) (*Plan, error) {
	if f < 0 {
		return nil, fmt.Errorf("draco: f must be non-negative, got %d", f)
	}
	r := 2*f + 1
	if n < r {
		return nil, fmt.Errorf("draco: n=%d < required 2f+1=%d", n, r)
	}
	if scheme != Repetition && scheme != Cyclic {
		return nil, fmt.Errorf("draco: unknown scheme %v", scheme)
	}
	return &Plan{n: n, f: f, scheme: scheme}, nil
}

// Redundancy returns r = 2f+1, the per-batch computation multiplier.
func (p *Plan) Redundancy() int { return 2*p.f + 1 }

// NumGroups returns the number of voting groups (= distinct mini-batches
// evaluated per step).
func (p *Plan) NumGroups() int {
	if p.scheme == Repetition {
		return p.n / p.Redundancy()
	}
	return p.n
}

// Groups returns, for each group, the ids of the workers that evaluate its
// batch.
func (p *Plan) Groups() [][]int {
	r := p.Redundancy()
	groups := make([][]int, p.NumGroups())
	for g := range groups {
		first := g // cyclic: batch g goes to workers g, g+1, …, g+r−1 (mod n)
		if p.scheme == Repetition {
			first = g * r // disjoint runs of r
		}
		groups[g] = make([]int, r)
		for i := range groups[g] {
			groups[g][i] = (first + i) % p.n
		}
	}
	return groups
}

// WorkerLoad returns how many mini-batch gradients worker w computes per
// step: 1 for repetition members (0 for leftover workers), r for cyclic.
func (p *Plan) WorkerLoad(w int) int {
	if w < 0 || w >= p.n {
		return 0
	}
	if p.scheme == Repetition {
		if w >= p.NumGroups()*p.Redundancy() {
			return 0 // leftover worker, idle under repetition
		}
		return 1
	}
	return p.Redundancy()
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

// Decode majority-votes each group and averages the winners. submissions is
// indexed [group][memberSlot] aligned with Groups(); a nil vector means the
// member did not report (counted as disagreeing). Voting is exact-match on
// the bit pattern: correct members computed on identical data with identical
// parameters, so honest submissions agree bit-for-bit.
func (p *Plan) Decode(submissions [][]tensor.Vector) (*Decoded, error) {
	groups := p.Groups()
	if len(submissions) != len(groups) {
		return nil, fmt.Errorf("draco: got %d group submissions, want %d", len(submissions), len(groups))
	}
	var winners []tensor.Vector
	suspects := map[int]bool{}
	for g, subs := range submissions {
		members := groups[g]
		if len(subs) != len(members) {
			return nil, fmt.Errorf("draco: group %d has %d submissions, want %d", g, len(subs), len(members))
		}
		counts := map[uint64][]int{} // vector fingerprint -> member slots
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
			return nil, fmt.Errorf("%w %d (need %d matching of %d)", ErrNoMajority, g, need, len(members))
		}
		winners = append(winners, subs[winSlots[0]])
		agreed := map[int]bool{}
		for _, s := range winSlots {
			agreed[s] = true
		}
		for slot := range subs {
			if !agreed[slot] {
				suspects[members[slot]] = true
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

// A repetition plan is a gradient aggregation rule: redundancy plus a
// per-group majority vote is a first aggregation stage over the id-ordered
// submissions of an ordinary parameter-server round, whose workers sample
// their group's shared batch (data.GroupSampler) and whose leftover workers
// stay silent. The cyclic scheme is not one — its workers owe r gradients a
// round, and a round carries one per worker.

// Name implements gar.GAR.
func (p *Plan) Name() string { return "draco" }

// F implements gar.ByzantineInfo.
func (p *Plan) F() int { return p.f }

// MinWorkers implements gar.ByzantineInfo: one full group.
func (p *Plan) MinWorkers() int { return p.Redundancy() }

// Aggregate implements gar.GAR: grads[w] is group member w's submission
// (the leftover workers submit nothing), regrouped by Groups() and decoded.
// A round that cannot be decoded — a member's gradient missing, a group
// without a majority — wraps gar.ErrTooFewWorkers, which a server skips on.
func (p *Plan) Aggregate(grads []tensor.Vector) (tensor.Vector, error) {
	if p.scheme != Repetition {
		return nil, fmt.Errorf("draco: the %v scheme is not an aggregation rule", p.scheme)
	}
	groups := p.Groups()
	if need := len(groups) * p.Redundancy(); len(grads) < need {
		return nil, fmt.Errorf("draco: %w: %d groups of %d need %d gradients, got %d",
			gar.ErrTooFewWorkers, len(groups), p.Redundancy(), need, len(grads))
	}
	subs := make([][]tensor.Vector, len(groups))
	for g, members := range groups {
		subs[g] = grads[members[0] : members[0]+len(members)] // a repetition group is a run of consecutive ids
	}
	dec, err := p.Decode(subs)
	if errors.Is(err, ErrNoMajority) {
		return nil, fmt.Errorf("%w: %w", gar.ErrTooFewWorkers, err)
	}
	if err != nil {
		return nil, err
	}
	return dec.Gradient, nil
}
