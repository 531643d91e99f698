package data

import (
	"math/rand"

	"aggregathor/internal/tensor"
)

// SharedBatch serves identical, deterministic mini-batches to every member
// of a Draco redundancy group: the batch for (group, step, seed) is a pure
// function of those values. This is exactly the "agreement on the ordering
// of the dataset" requirement that lets Draco's majority vote compare
// gradients bit-for-bit — and that the paper criticises as incompatible with
// private data.
type SharedBatch struct {
	DS *Dataset
}

// GroupBatch returns the mini-batch for (group, step) — the same bytes for
// every member of the group.
func (s SharedBatch) GroupBatch(group, step, batch int, seed int64) (*tensor.Matrix, []int) {
	// Mix the coordinates into one seed; SplitMix-style constants keep
	// adjacent (group, step) pairs uncorrelated.
	mixedSeed := uint64(seed)
	mixedSeed = mixedSeed*0x9E3779B97F4A7C15 + uint64(group)
	mixedSeed = mixedSeed*0xBF58476D1CE4E5B9 + uint64(step)
	rng := rand.New(rand.NewSource(int64(mixedSeed)))
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = rng.Intn(s.DS.Len())
	}
	return s.DS.Batch(idx)
}

// GroupSampler is one group member's Sampler over the shared stream: its k-th
// Sample is the group's batch for step k, so members holding separate
// instances draw identical batches as long as each samples once a round.
type GroupSampler struct {
	SharedBatch
	Group int
	Seed  int64
	step  int
}

// Sample implements Sampler.
func (s *GroupSampler) Sample(batch int) (*tensor.Matrix, []int) {
	s.step++
	return s.GroupBatch(s.Group, s.step-1, batch, s.Seed)
}
