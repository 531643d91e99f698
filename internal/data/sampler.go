package data

import (
	"fmt"
	"math/rand"

	"aggregathor/internal/tensor"
)

// Sampler produces mini-batches for one worker. The paper's convergence
// analysis assumes each worker draws IID from the training set ("the workers
// to be drawing data independently and identically distributed"); Sampler
// implementations must honour that unless explicitly modelling corruption.
type Sampler interface {
	// Sample returns the next mini-batch (inputs, labels).
	Sample(batch int) (*tensor.Matrix, []int)
}

// UniformSampler draws uniformly with replacement from a dataset, seeded per
// worker so distributed runs are reproducible.
type UniformSampler struct {
	ds  *Dataset
	rng *rand.Rand
	idx []int // the draw's indexes, reused: a sampler belongs to one worker
}

// NewUniformSampler builds an IID sampler over ds with its own seed.
func NewUniformSampler(ds *Dataset, seed int64) *UniformSampler {
	return &UniformSampler{ds: ds, rng: rand.New(rand.NewSource(seed))}
}

// Sample implements Sampler.
func (s *UniformSampler) Sample(batch int) (*tensor.Matrix, []int) {
	if batch <= 0 {
		panic(fmt.Sprintf("data: batch size %d", batch))
	}
	if len(s.idx) != batch {
		s.idx = make([]int, batch)
	}
	for i := range s.idx {
		s.idx[i] = s.rng.Intn(s.ds.Len())
	}
	return s.ds.Batch(s.idx)
}

// Corruption transforms a sampled mini-batch in place — the data-level
// Byzantine behaviours of Figure 7 ("corrupted data ... to which TensorFlow
// is intolerant").
type Corruption interface {
	// Name identifies the corruption.
	Name() string
	// Corrupt mutates the batch.
	Corrupt(x *tensor.Matrix, y []int)
}

// LabelFlip relabels every sample to (label + Offset) mod classes — the
// classic poisoned-dataset worker.
type LabelFlip struct {
	Classes int
	Offset  int
}

// Name implements Corruption.
func (LabelFlip) Name() string { return "label-flip" }

// Corrupt implements Corruption.
func (l LabelFlip) Corrupt(x *tensor.Matrix, y []int) {
	off := l.Offset
	if off == 0 {
		off = 1
	}
	for i := range y {
		y[i] = (y[i] + off) % l.Classes
	}
}

// GarbagePixels overwrites inputs with large uniform noise — the "malformed
// input" of Figure 7 that makes gradients explode under averaging.
type GarbagePixels struct {
	// Scale is the noise amplitude; 0 means the default 100.
	Scale float64
	// Rng drives the noise; a nil Rng panics at first use by design (the
	// worker harness always provides one).
	Rng *rand.Rand
}

// Name implements Corruption.
func (GarbagePixels) Name() string { return "garbage-pixels" }

// Corrupt implements Corruption.
func (g GarbagePixels) Corrupt(x *tensor.Matrix, y []int) {
	scale := g.Scale
	if scale == 0 {
		scale = 100
	}
	for i := range x.Data {
		x.Data[i] = (g.Rng.Float64()*2 - 1) * scale
	}
}

// CorruptedSampler wraps a Sampler with a Corruption.
type CorruptedSampler struct {
	Inner      Sampler
	Corruption Corruption
}

// Sample implements Sampler.
func (c *CorruptedSampler) Sample(batch int) (*tensor.Matrix, []int) {
	x, y := c.Inner.Sample(batch)
	c.Corruption.Corrupt(x, y)
	return x, y
}
