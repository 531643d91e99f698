package gar

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aggregathor/internal/tensor"
)

func TestMultiKrumRequiresEnoughWorkers(t *testing.T) {
	mk := NewMultiKrum(4) // needs n >= 11
	grads := make([]tensor.Vector, 10)
	for i := range grads {
		grads[i] = tensor.Vector{1}
	}
	if _, err := Aggregate(mk, grads); !errors.Is(err, ErrTooFewWorkers) {
		t.Fatalf("want ErrTooFewWorkers, got %v", err)
	}
}

func TestMultiKrumEffectiveM(t *testing.T) {
	mk := NewMultiKrum(4)
	if got := mk.EffectiveM(19); got != 13 { // n-f-2 = 19-4-2
		t.Fatalf("EffectiveM(19) = %d, want 13", got)
	}
	mk.M = 5
	if got := mk.EffectiveM(19); got != 5 {
		t.Fatalf("explicit M: got %d, want 5", got)
	}
}

func TestMultiKrumRejectsOversizedM(t *testing.T) {
	mk := &MultiKrum{NumByzantine: 1, M: 10} // n=7 allows m <= 4
	grads := make([]tensor.Vector, 7)
	for i := range grads {
		grads[i] = tensor.Vector{float64(i)}
	}
	if _, err := Aggregate(mk, grads); err == nil {
		t.Fatal("want error for m > n-f-2")
	}
}

// With f Byzantine gradients placed far away, MULTI-KRUM must never select
// them (the core weak-resilience selection property).
func TestMultiKrumExcludesFarByzantine(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, f, d := 19, 4, 30
	mean := constVec(d, 0.5)
	grads := honestCloud(rng, n-f, d, mean, 0.05)
	for i := 0; i < f; i++ {
		grads = append(grads, constVec(d, 1e6+float64(i)))
	}
	mk := NewMultiKrum(f)
	sel, err := mk.Select(grads)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != mk.EffectiveM(n) {
		t.Fatalf("selected %d, want %d", len(sel), mk.EffectiveM(n))
	}
	for _, idx := range sel {
		if idx >= n-f {
			t.Fatalf("Byzantine gradient %d selected", idx)
		}
	}
}

func TestMultiKrumExcludesNaNGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n, f, d := 11, 2, 10
	grads := honestCloud(rng, n-f, d, constVec(d, 1), 0.1)
	nanVec := constVec(d, math.NaN())
	infVec := constVec(d, math.Inf(1))
	grads = append(grads, nanVec, infVec)
	mk := NewMultiKrum(f)
	out, err := Aggregate(mk, grads)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsFinite() {
		t.Fatalf("aggregate contains non-finite values: %v", out)
	}
	sel, err := mk.Select(grads)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range sel {
		if idx >= n-f {
			t.Fatalf("non-finite gradient %d selected", idx)
		}
	}
}

func TestKrumSelectsMedianLikeGradient(t *testing.T) {
	// Krum (m=1) must pick a vector near the cluster centre, not the
	// outlier.
	grads := []tensor.Vector{
		{1.0}, {1.1}, {0.9}, {1.05}, {0.95}, {1.02}, {50.0},
	}
	k := NewKrum(1)
	out, err := Aggregate(k, grads)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-1) > 0.2 {
		t.Fatalf("Krum picked %v, want near 1", out[0])
	}
}

func TestMultiKrumOutputInConvexHull(t *testing.T) {
	// With no Byzantine vectors, the output is an average of selected
	// gradients, hence within [min, max] coordinate-wise.
	rng := rand.New(rand.NewSource(44))
	n, f, d := 11, 2, 5
	grads := honestCloud(rng, n, d, constVec(d, 2), 1)
	out, err := Aggregate(NewMultiKrum(f), grads)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < d; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, g := range grads {
			lo = math.Min(lo, g[j])
			hi = math.Max(hi, g[j])
		}
		if out[j] < lo-1e-12 || out[j] > hi+1e-12 {
			t.Fatalf("coordinate %d: %v outside [%v, %v]", j, out[j], lo, hi)
		}
	}
}

func TestKrumScoresSymmetricCluster(t *testing.T) {
	// Four identical vectors: all scores are zero.
	grads := []tensor.Vector{{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}}
	var ws Workspace
	dist := BlockedPairwiseSquaredDistances(grads, &ws)
	scores := krumScoresInto(&ws, dist, len(grads), 1)
	for i, s := range scores {
		if s != 0 {
			t.Fatalf("score[%d] = %v, want 0", i, s)
		}
	}
}

// Property (Theorem 1 shape): for any m in [1, n-f-2] and any placement of f
// far-away Byzantine vectors, no Byzantine vector is selected.
func TestQuickMultiKrumSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := r.Intn(3) + 1
		n := 2*f + 3 + r.Intn(6)
		m := r.Intn(n-f-2) + 1
		d := r.Intn(20) + 2
		honest := honestCloud(r, n-f, d, constVec(d, 1), 0.1)
		grads := append([]tensor.Vector{}, honest...)
		for i := 0; i < f; i++ {
			grads = append(grads, constVec(d, 1e9*(r.Float64()+1)))
		}
		// Shuffle so Byzantine positions are arbitrary.
		perm := r.Perm(len(grads))
		shuffled := make([]tensor.Vector, len(grads))
		byz := make(map[int]bool)
		for newIdx, oldIdx := range perm {
			shuffled[newIdx] = grads[oldIdx]
			if oldIdx >= n-f {
				byz[newIdx] = true
			}
		}
		mk := &MultiKrum{NumByzantine: f, M: m}
		sel, err := mk.Select(shuffled)
		if err != nil {
			return false
		}
		for _, idx := range sel {
			if byz[idx] {
				return false
			}
		}
		return len(sel) == m
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: MULTI-KRUM is permutation-equivariant — shuffling the input
// gradients does not change the aggregated output.
func TestQuickMultiKrumPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 40; iter++ {
		n, f, d := 11, 2, 8
		grads := honestCloud(rng, n, d, constVec(d, 0), 1)
		mk := NewMultiKrum(f)
		base, err := Aggregate(mk, grads)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(n)
		shuffled := make([]tensor.Vector, n)
		for i, p := range perm {
			shuffled[i] = grads[p]
		}
		got, err := Aggregate(mk, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < d; j++ {
			if math.Abs(got[j]-base[j]) > 1e-9 {
				t.Fatalf("permutation changed output at coord %d: %v vs %v", j, got[j], base[j])
			}
		}
	}
}

// Property: with zero Byzantine workers and m = n, MULTI-KRUM with f=0
// averages a superset; specifically for f=0, m=n-2 selection is an average of
// honest gradients and must stay within the honest bounding box.
func TestQuickMultiKrumBoundingBox(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for iter := 0; iter < 40; iter++ {
		n := rng.Intn(8) + 5
		d := rng.Intn(10) + 1
		grads := honestCloud(rng, n, d, constVec(d, 0), 2)
		mk := NewMultiKrum(0)
		out, err := Aggregate(mk, grads)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < d; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, g := range grads {
				lo = math.Min(lo, g[j])
				hi = math.Max(hi, g[j])
			}
			if out[j] < lo-1e-12 || out[j] > hi+1e-12 {
				t.Fatalf("outside hull at coord %d", j)
			}
		}
	}
}
