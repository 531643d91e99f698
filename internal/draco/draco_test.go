package draco

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/tensor"
)

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(2, 1, Repetition); err == nil {
		t.Fatal("n=2 f=1 should fail (needs n >= 3)")
	}
	if _, err := NewPlan(5, -1, Repetition); err == nil {
		t.Fatal("negative f should fail")
	}
	if _, err := NewPlan(5, 1, Scheme(9)); err == nil {
		t.Fatal("unknown scheme should fail")
	}
	p, err := NewPlan(9, 1, Repetition)
	if err != nil {
		t.Fatal(err)
	}
	if p.Redundancy() != 3 {
		t.Fatalf("redundancy %d, want 3", p.Redundancy())
	}
}

func TestRepetitionGroups(t *testing.T) {
	p, err := NewPlan(9, 1, Repetition)
	if err != nil {
		t.Fatal(err)
	}
	groups := p.Groups()
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	seen := map[int]bool{}
	for _, g := range groups {
		if len(g) != 3 {
			t.Fatalf("group size %d, want 3", len(g))
		}
		for _, w := range g {
			if seen[w] {
				t.Fatalf("worker %d in two repetition groups", w)
			}
			seen[w] = true
		}
	}
}

func TestRepetitionLeftoverWorkersIdle(t *testing.T) {
	p, err := NewPlan(10, 1, Repetition) // r=3, 3 groups, worker 9 idle
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

func TestCyclicGroups(t *testing.T) {
	p, err := NewPlan(5, 1, Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	groups := p.Groups()
	if len(groups) != 5 {
		t.Fatalf("got %d groups, want 5", len(groups))
	}
	// Group 4 wraps: {4, 0, 1}.
	g4 := groups[4]
	if g4[0] != 4 || g4[1] != 0 || g4[2] != 1 {
		t.Fatalf("group 4 = %v", g4)
	}
	if p.WorkerLoad(2) != 3 {
		t.Fatalf("cyclic worker load %d, want r=3", p.WorkerLoad(2))
	}
}

func TestDecodeHonest(t *testing.T) {
	p, err := NewPlan(6, 1, Repetition) // 2 groups of 3
	if err != nil {
		t.Fatal(err)
	}
	g0 := tensor.Vector{1, 2}
	g1 := tensor.Vector{3, 4}
	dec, err := p.Decode([][]tensor.Vector{
		{g0, g0.Clone(), g0.Clone()},
		{g1, g1.Clone(), g1.Clone()},
	})
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
	p, err := NewPlan(3, 1, Repetition)
	if err != nil {
		t.Fatal(err)
	}
	honest := tensor.Vector{1, 1}
	evil := tensor.Vector{-100, 50}
	dec, err := p.Decode([][]tensor.Vector{{honest, evil, honest.Clone()}})
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
	p, err := NewPlan(3, 1, Repetition)
	if err != nil {
		t.Fatal(err)
	}
	honest := tensor.Vector{2}
	dec, err := p.Decode([][]tensor.Vector{{honest, nil, honest.Clone()}})
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
	p, err := NewPlan(3, 1, Repetition)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Decode([][]tensor.Vector{{
		{1}, {2}, {3}, // three distinct values: no f+1 majority
	}})
	if !errors.Is(err, ErrNoMajority) {
		t.Fatalf("want ErrNoMajority, got %v", err)
	}
}

func TestDecodeShapeErrors(t *testing.T) {
	p, err := NewPlan(3, 1, Repetition)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Decode(nil); err == nil {
		t.Fatal("want group-count error")
	}
	if _, err := p.Decode([][]tensor.Vector{{{1}}}); err == nil {
		t.Fatal("want member-count error")
	}
}

func TestNaNPayloadCannotSplitVote(t *testing.T) {
	// Two honest NaN-bearing submissions must vote together even with
	// different NaN payload bits (tensor.Vector.Fingerprint canonicalises).
	p, err := NewPlan(3, 1, Repetition)
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.Vector{math.NaN()}
	b := tensor.Vector{math.Float64frombits(0x7ff8000000000001)} // NaN, different payload
	dec, err := p.Decode([][]tensor.Vector{{a, {7}, b}})
	if err != nil {
		t.Fatalf("NaN payloads split the vote: %v", err)
	}
	if len(dec.SuspectWorkers) != 1 || dec.SuspectWorkers[0] != 1 {
		t.Fatalf("suspects %v, want [1]", dec.SuspectWorkers)
	}
}

func TestCyclicDecodeWithScatteredByzantine(t *testing.T) {
	// n=7, f=1, cyclic: every group has 3 members; one Byzantine worker
	// (id 2) corrupts every group it belongs to, but is outvoted 2-1.
	p, err := NewPlan(7, 1, Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	groups := p.Groups()
	truth := make([]tensor.Vector, len(groups))
	subs := make([][]tensor.Vector, len(groups))
	for g, members := range groups {
		truth[g] = tensor.Vector{rng.NormFloat64()}
		subs[g] = make([]tensor.Vector, len(members))
		for slot, w := range members {
			if w == 2 {
				subs[g][slot] = tensor.Vector{999}
			} else {
				subs[g][slot] = truth[g].Clone()
			}
		}
	}
	dec, err := p.Decode(subs)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Mean(truth)
	if math.Abs(dec.Gradient[0]-want[0]) > 1e-12 {
		t.Fatalf("decoded %v, want %v", dec.Gradient[0], want[0])
	}
	if len(dec.SuspectWorkers) != 1 || dec.SuspectWorkers[0] != 2 {
		t.Fatalf("suspects %v, want [2]", dec.SuspectWorkers)
	}
}

func TestSchemeString(t *testing.T) {
	if Repetition.String() != "repetition" || Cyclic.String() != "cyclic" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(9).String() != "Scheme(9)" {
		t.Fatal("unknown scheme formatting wrong")
	}
}
