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
	// Sample returns the next mini-batch (inputs, labels), valid until the
	// next Sample: an implementation may hand out the same buffers again.
	Sample(batch int) (*tensor.Matrix, []int)
}

// UniformSampler draws uniformly with replacement from a dataset, seeded per
// worker so distributed runs are reproducible.
type UniformSampler struct {
	ds  *Dataset
	rng *rand.Rand
	// The batch every draw fills, reused: a sampler belongs to one worker,
	// which trains on a batch before it draws the next.
	x *tensor.Matrix
	y []int
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
	if len(s.y) != batch {
		s.x, s.y = tensor.NewMatrix(batch, s.ds.X.Cols), make([]int, batch)
	}
	for i := range s.y {
		j := s.rng.Intn(s.ds.Len())
		copy(s.x.Row(i), s.ds.X.Row(j))
		s.y[i] = s.ds.Y[j]
	}
	return s.x, s.y
}

// CorruptedSampler wraps a Sampler and overwrites every sampled input with
// uniform noise in [-100, 100) — the "malformed input" of Figure 7
// ("corrupted data ... to which TensorFlow is intolerant") that makes
// gradients explode under averaging.
type CorruptedSampler struct {
	Inner Sampler
	// Rng drives the noise; a nil Rng panics at first use by design (the
	// worker harness always provides one).
	Rng *rand.Rand
}

// Sample implements Sampler.
func (c *CorruptedSampler) Sample(batch int) (*tensor.Matrix, []int) {
	x, y := c.Inner.Sample(batch)
	for i := range x.Data {
		x.Data[i] = (c.Rng.Float64()*2 - 1) * 100
	}
	return x, y
}
