package gar

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/tensor"
)

func TestGenericBulyanOverMultiKrum(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	n, f, d := 19, 4, 16
	grads := honestCloud(rng, n-f, d, constVec(d, 1), 0.1)
	for i := 0; i < f; i++ {
		grads = append(grads, constVec(d, -1e8))
	}
	gb := NewGenericBulyan(NewMultiKrum(f), f)
	out, err := Aggregate(gb, grads)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < d; j++ {
		if math.Abs(out[j]-1) > 0.5 {
			t.Fatalf("coord %d dragged to %v", j, out[j])
		}
	}
}

func TestGenericBulyanOverMedian(t *testing.T) {
	// The paper's composability claim: any weak GAR can sit underneath.
	rng := rand.New(rand.NewSource(71))
	n, f, d := 11, 2, 8
	grads := honestCloud(rng, n-f, d, constVec(d, 0.5), 0.05)
	for i := 0; i < f; i++ {
		grads = append(grads, constVec(d, 1e7))
	}
	gb := NewGenericBulyan(Median{}, f)
	out, err := Aggregate(gb, grads)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < d; j++ {
		if math.Abs(out[j]-0.5) > 0.3 {
			t.Fatalf("coord %d dragged to %v", j, out[j])
		}
	}
}

func TestGenericBulyanOverGeoMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	n, f, d := 11, 2, 8
	grads := honestCloud(rng, n-f, d, constVec(d, -1), 0.05)
	for i := 0; i < f; i++ {
		grads = append(grads, constVec(d, 1e7))
	}
	gb := NewGenericBulyan(NewGeoMedian(f), f)
	out, err := Aggregate(gb, grads)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < d; j++ {
		if math.Abs(out[j]+1) > 0.3 {
			t.Fatalf("coord %d dragged to %v", j, out[j])
		}
	}
}

func TestGenericBulyanRequirements(t *testing.T) {
	gb := NewGenericBulyan(NewMultiKrum(1), 1) // needs n >= 7
	grads := []tensor.Vector{{1}, {2}, {3}}
	if _, err := Aggregate(gb, grads); !errors.Is(err, ErrTooFewWorkers) {
		t.Fatalf("want ErrTooFewWorkers, got %v", err)
	}
	empty := &GenericBulyan{NumByzantine: 0}
	if _, err := Aggregate(empty, grads); err == nil {
		t.Fatal("nil inner GAR accepted")
	}
}

func TestGenericBulyanNaNTolerant(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	n, f, d := 7, 1, 6
	grads := honestCloud(rng, n-f, d, constVec(d, 1), 0.05)
	grads = append(grads, constVec(d, math.NaN()))
	gb := NewGenericBulyan(NewMultiKrum(f), f)
	out, err := Aggregate(gb, grads)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsFinite() {
		t.Fatalf("non-finite output: %v", out)
	}
}

func TestGenericBulyanCloseToOptimizedBulyan(t *testing.T) {
	// Same phase-2 over (possibly different) extracted sets: on a clean
	// homogeneous cloud the two outputs must land near the same point.
	rng := rand.New(rand.NewSource(74))
	n, f, d := 19, 4, 10
	grads := honestCloud(rng, n, d, constVec(d, 0), 0.5)
	a, err := Aggregate(NewGenericBulyan(NewMultiKrum(f), f), grads)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Aggregate(NewBulyan(f), grads)
	if err != nil {
		t.Fatal(err)
	}
	if dist := tensor.Distance(a, b); dist > 1.0 {
		t.Fatalf("generic and optimized bulyan far apart: %v", dist)
	}
}

func TestGenericBulyanName(t *testing.T) {
	gb := NewGenericBulyan(Median{}, 1)
	if gb.Name() != "bulyan[median]" {
		t.Fatalf("name %q", gb.Name())
	}
	if gb.MinWorkers() != 7 || gb.F() != 1 {
		t.Fatal("byzantine info wrong")
	}
}
