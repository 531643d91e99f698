package gar

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/tensor"
)

func TestBulyanRequiresEnoughWorkers(t *testing.T) {
	b := NewBulyan(4) // needs n >= 19
	grads := make([]tensor.Vector, 18)
	for i := range grads {
		grads[i] = tensor.Vector{1}
	}
	if _, err := Aggregate(b, grads); !errors.Is(err, ErrTooFewWorkers) {
		t.Fatalf("want ErrTooFewWorkers, got %v", err)
	}
}

func TestBulyanThetaBeta(t *testing.T) {
	b := NewBulyan(4)
	if got := b.Theta(19); got != 11 {
		t.Fatalf("Theta(19) = %d, want 11", got)
	}
	if got := b.Beta(19); got != 3 {
		t.Fatalf("Beta(19) = %d, want 3", got)
	}
}

// Bulyan's selection phase may admit Byzantine gradients in late iterations
// (once the active set shrinks to 2f+1 a colluding clique can score well);
// the guarantee is that at most f of the θ selected are Byzantine and the
// median phase neutralises them. Assert exactly that.
func TestBulyanBoundsByzantineInfluence(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	n, f, d := 19, 4, 20
	grads := honestCloud(rng, n-f, d, constVec(d, 1), 0.05)
	for i := 0; i < f; i++ {
		grads = append(grads, constVec(d, -1e7))
	}
	b := NewBulyan(f)
	sel, err := b.selectInto(new(Workspace), grads)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != b.Theta(n) {
		t.Fatalf("selected %d, want %d", len(sel), b.Theta(n))
	}
	byzSelected := 0
	for _, idx := range sel {
		if idx >= n-f {
			byzSelected++
		}
	}
	if byzSelected > f {
		t.Fatalf("%d Byzantine gradients selected, tolerance is %d", byzSelected, f)
	}
	out, err := Aggregate(b, grads)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < d; j++ {
		if math.Abs(out[j]-1) > 0.5 {
			t.Fatalf("output dragged to %v at coordinate %d", out[j], j)
		}
	}
}

func TestBulyanToleratesNaNGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n, f, d := 7, 1, 12
	grads := honestCloud(rng, n-f, d, constVec(d, 0.5), 0.05)
	grads = append(grads, constVec(d, math.NaN()))
	out, err := Aggregate(NewBulyan(f), grads)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsFinite() {
		t.Fatalf("non-finite output: %v", out)
	}
}

func TestBulyanOptimizedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for iter := 0; iter < 10; iter++ {
		f := rng.Intn(2) + 1
		n := 4*f + 3 + rng.Intn(4)
		d := rng.Intn(16) + 4
		grads := honestCloud(rng, n, d, constVec(d, 0), 1)
		a, err := Aggregate(NewBulyan(f), grads)
		if err != nil {
			t.Fatal(err)
		}
		b := aggregateNaive(grads, f)
		for j := 0; j < d; j++ {
			if math.Abs(a[j]-b[j]) > 1e-9 {
				t.Fatalf("iter %d coord %d: optimized %v vs naive %v", iter, j, a[j], b[j])
			}
		}
	}
}

// Strong-resilience shape (Definition 2): each output coordinate lies within
// the range of correct-gradient values in that coordinate, even under the
// coordinate-sniping attack that defeats weak GARs.
func TestBulyanCoordinateBoundedUnderAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	n, f, d := 19, 4, 10
	honest := honestCloud(rng, n-f, d, constVec(d, 1), 0.1)
	// Byzantine vectors: match honest statistics in all coordinates but
	// blow up one coordinate moderately (the "dimensional leeway" attack).
	grads := append([]tensor.Vector{}, honest...)
	for i := 0; i < f; i++ {
		v := honest[i].Clone()
		v[0] += 3 // larger than the honest sigma but not absurd
		grads = append(grads, v)
	}
	out, err := Aggregate(NewBulyan(f), grads)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, g := range honest {
		lo = math.Min(lo, g[0])
		hi = math.Max(hi, g[0])
	}
	// Bulyan's median-then-closest-average keeps coordinate 0 within the
	// honest range (+/- slack for the averaged closest values).
	if out[0] < lo-0.5 || out[0] > hi+0.5 {
		t.Fatalf("coordinate 0 escaped honest range: %v not in [%v, %v]", out[0], lo, hi)
	}
}

func TestBulyanPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n, f, d := 11, 2, 6
	grads := honestCloud(rng, n, d, constVec(d, 0), 1)
	b := NewBulyan(f)
	base, err := Aggregate(b, grads)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 10; iter++ {
		perm := rng.Perm(n)
		shuffled := make([]tensor.Vector, n)
		for i, p := range perm {
			shuffled[i] = grads[p]
		}
		got, err := Aggregate(b, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < d; j++ {
			if math.Abs(got[j]-base[j]) > 1e-9 {
				t.Fatalf("permutation changed output at coord %d", j)
			}
		}
	}
}

func TestBulyanSelectionOrderIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	grads := honestCloud(rng, 7, 4, constVec(4, 0), 1)
	b := NewBulyan(1)
	first, err := b.selectInto(new(Workspace), grads)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := b.selectInto(new(Workspace), grads)
		if err != nil {
			t.Fatal(err)
		}
		for k := range first {
			if first[k] != again[k] {
				t.Fatalf("non-deterministic selection: %v vs %v", first, again)
			}
		}
	}
}
