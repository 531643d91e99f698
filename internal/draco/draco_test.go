package draco

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aggregathor/internal/gar"
	"aggregathor/internal/tensor"
)

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(2, 1); err == nil {
		t.Fatal("n=2 f=1 should fail (needs n >= 3)")
	}
	if _, err := NewPlan(5, -1); err == nil {
		t.Fatal("negative f should fail")
	}
	p, err := NewPlan(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Redundancy() != 3 {
		t.Fatalf("redundancy %d, want 3", p.Redundancy())
	}
}

// TestRepetitionGroups: n = 9, f = 1 is three groups of three that load
// every worker exactly once.
func TestRepetitionGroups(t *testing.T) {
	p, err := NewPlan(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumGroups() != 3 || p.Redundancy() != 3 {
		t.Fatalf("%d groups of %d, want 3 of 3", p.NumGroups(), p.Redundancy())
	}
	for w := 0; w < 9; w++ {
		if p.WorkerLoad(w) != 1 {
			t.Fatalf("worker %d load %d, want 1", w, p.WorkerLoad(w))
		}
	}
}

func TestRepetitionLeftoverWorkersIdle(t *testing.T) {
	p, err := NewPlan(10, 1) // r=3, 3 groups, worker 9 idle
	if err != nil {
		t.Fatal(err)
	}
	if p.NumGroups() != 3 {
		t.Fatalf("NumGroups %d, want 3", p.NumGroups())
	}
	if p.WorkerLoad(9) != 0 {
		t.Fatalf("leftover worker load %d, want 0", p.WorkerLoad(9))
	}
	if p.WorkerLoad(0) != 1 {
		t.Fatalf("member load %d, want 1", p.WorkerLoad(0))
	}
}

func TestDecodeHonest(t *testing.T) {
	p, err := NewPlan(6, 1) // 2 groups of 3
	if err != nil {
		t.Fatal(err)
	}
	g0 := tensor.Vector{1, 2}
	g1 := tensor.Vector{3, 4}
	dec, err := p.Decode([]tensor.Vector{g0, g0.Clone(), g0.Clone(), g1, g1.Clone(), g1.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Gradient[0] != 2 || dec.Gradient[1] != 3 {
		t.Fatalf("decoded %v, want [2 3]", dec.Gradient)
	}
	if len(dec.SuspectWorkers) != 0 {
		t.Fatalf("suspects %v, want none", dec.SuspectWorkers)
	}
}

func TestDecodeOutvotesByzantine(t *testing.T) {
	p, err := NewPlan(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	honest := tensor.Vector{1, 1}
	evil := tensor.Vector{-100, 50}
	dec, err := p.Decode([]tensor.Vector{honest, evil, honest.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Gradient[0] != 1 || dec.Gradient[1] != 1 {
		t.Fatalf("decoded %v, want honest [1 1]", dec.Gradient)
	}
	if len(dec.SuspectWorkers) != 1 || dec.SuspectWorkers[0] != 1 {
		t.Fatalf("suspects %v, want [1]", dec.SuspectWorkers)
	}
}

func TestDecodeDetectsSilentWorker(t *testing.T) {
	p, err := NewPlan(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	honest := tensor.Vector{2}
	dec, err := p.Decode([]tensor.Vector{honest, nil, honest.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Gradient[0] != 2 {
		t.Fatalf("decoded %v", dec.Gradient)
	}
	if len(dec.SuspectWorkers) != 1 || dec.SuspectWorkers[0] != 1 {
		t.Fatalf("suspects %v, want [1]", dec.SuspectWorkers)
	}
}

func TestDecodeNoMajority(t *testing.T) {
	p, err := NewPlan(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Decode([]tensor.Vector{
		{1}, {2}, {3}, // three distinct values: no f+1 majority
	})
	if !errors.Is(err, ErrNoMajority) {
		t.Fatalf("want ErrNoMajority, got %v", err)
	}
}

func TestDecodeShapeErrors(t *testing.T) {
	p, err := NewPlan(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Decode(nil); !errors.Is(err, gar.ErrTooFewWorkers) {
		t.Fatalf("no gradients: %v, want gar.ErrTooFewWorkers", err)
	}
	if _, err := p.Decode([]tensor.Vector{{1}, {1}}); !errors.Is(err, gar.ErrTooFewWorkers) {
		t.Fatalf("a group short of a member: %v, want gar.ErrTooFewWorkers", err)
	}
}

func TestNaNPayloadCannotSplitVote(t *testing.T) {
	// Two honest NaN-bearing submissions must vote together even with
	// different NaN payload bits (tensor.Vector.Fingerprint canonicalises).
	p, err := NewPlan(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.Vector{math.NaN()}
	b := tensor.Vector{math.Float64frombits(0x7ff8000000000001)} // NaN, different payload
	dec, err := p.Decode([]tensor.Vector{a, {7}, b})
	if err != nil {
		t.Fatalf("NaN payloads split the vote: %v", err)
	}
	if len(dec.SuspectWorkers) != 1 || dec.SuspectWorkers[0] != 1 {
		t.Fatalf("suspects %v, want [1]", dec.SuspectWorkers)
	}
}

func TestDecodeWithScatteredByzantine(t *testing.T) {
	// n=10, f=1: three groups of 3 and an idle worker 9. One Byzantine
	// member in every group (ids 1, 3 and 8) is outvoted 2-1 each time, and
	// the idle worker's slot is not read.
	p, err := NewPlan(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	truth := make([]tensor.Vector, p.NumGroups())
	grads := make([]tensor.Vector, 10)
	for g := range truth {
		truth[g] = tensor.Vector{rng.NormFloat64()}
	}
	for w := 0; w < len(truth)*p.Redundancy(); w++ {
		grads[w] = truth[w/p.Redundancy()].Clone()
	}
	for _, w := range []int{1, 3, 8, 9} {
		grads[w] = tensor.Vector{999}
	}
	dec, err := p.Decode(grads)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Mean(truth)
	if math.Abs(dec.Gradient[0]-want[0]) > 1e-12 {
		t.Fatalf("decoded %v, want %v", dec.Gradient[0], want[0])
	}
	if !slices.Equal(dec.SuspectWorkers, []int{1, 3, 8}) {
		t.Fatalf("suspects %v, want [1 3 8]", dec.SuspectWorkers)
	}
}
