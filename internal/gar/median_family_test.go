package gar

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/tensor"
)

func TestGeoMedianOnCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	grads := honestCloud(rng, 6, 8, constVec(8, 2), 0.1)
	grads = append(grads, constVec(8, 1e9)) // one far Byzantine
	g := NewGeoMedian(1)
	out, err := Aggregate(g, grads)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 8; j++ {
		if math.Abs(out[j]-2) > 0.5 {
			t.Fatalf("geometric median dragged to %v at coord %d", out[j], j)
		}
	}
}

func TestGeoMedianTooFewWorkers(t *testing.T) {
	g := NewGeoMedian(2) // needs n >= 5
	if _, err := Aggregate(g, []tensor.Vector{{1}, {2}}); !errors.Is(err, ErrTooFewWorkers) {
		t.Fatalf("want ErrTooFewWorkers, got %v", err)
	}
}

func TestGeoMedianExcludesNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	grads := honestCloud(rng, 5, 4, constVec(4, 1), 0.05)
	grads = append(grads, constVec(4, math.NaN()), constVec(4, math.Inf(1)))
	out, err := Aggregate(NewGeoMedian(2), grads)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsFinite() {
		t.Fatalf("non-finite output %v", out)
	}
	for j := 0; j < 4; j++ {
		if math.Abs(out[j]-1) > 0.3 {
			t.Fatalf("coord %d drifted: %v", j, out[j])
		}
	}
}

func TestGeoMedianAllNonFiniteIsNullUpdate(t *testing.T) {
	grads := []tensor.Vector{constVec(3, math.NaN()), constVec(3, math.Inf(1)), constVec(3, math.NaN())}
	out, err := Aggregate(NewGeoMedian(1), grads)
	if err != nil {
		t.Fatal(err)
	}
	if out.SquaredNorm() != 0 {
		t.Fatalf("want null update, got %v", out)
	}
}

func TestGeoMedianExactOnDataPoint(t *testing.T) {
	// With an iterate landing on a data point, the rule returns that point
	// rather than dividing by zero.
	grads := []tensor.Vector{{0, 0}, {0, 0}, {0, 0}}
	out, err := Aggregate(NewGeoMedian(1), grads)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("got %v", out)
	}
}

func TestGeoMedianMinimizesDistanceSum(t *testing.T) {
	// The Weiszfeld result must beat the arithmetic mean on the summed
	// distance objective when an outlier is present.
	rng := rand.New(rand.NewSource(62))
	grads := honestCloud(rng, 8, 5, constVec(5, 0), 1)
	grads = append(grads, constVec(5, 500))
	med, err := Aggregate(NewGeoMedian(1), grads)
	if err != nil {
		t.Fatal(err)
	}
	mean := tensor.Mean(grads)
	sum := func(y tensor.Vector) float64 {
		var s float64
		for _, g := range grads {
			s += tensor.Distance(g, y)
		}
		return s
	}
	if sum(med) >= sum(mean) {
		t.Fatalf("geometric median (%v) did not beat mean (%v) on distance sum", sum(med), sum(mean))
	}
}

func TestMeanAroundMedian(t *testing.T) {
	// n=5, f=1: per coordinate, average the 4 values closest to the
	// median.
	grads := []tensor.Vector{{0}, {1}, {2}, {3}, {1000}}
	out, err := Aggregate(NewMeanAroundMedian(1), grads)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-1.5) > 1e-12 { // mean of {0,1,2,3}
		t.Fatalf("got %v, want 1.5", out[0])
	}
}

func TestMeanAroundMedianTooFew(t *testing.T) {
	m := NewMeanAroundMedian(2)
	if _, err := Aggregate(m, []tensor.Vector{{1}, {2}, {3}}); !errors.Is(err, ErrTooFewWorkers) {
		t.Fatalf("want ErrTooFewWorkers, got %v", err)
	}
}

func TestMeanAroundMedianNaNTolerant(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	grads := honestCloud(rng, 6, 6, constVec(6, 1), 0.05)
	grads = append(grads, constVec(6, math.NaN()))
	out, err := Aggregate(NewMeanAroundMedian(1), grads)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsFinite() {
		t.Fatalf("non-finite output %v", out)
	}
}

func TestMedianFamilyRegistry(t *testing.T) {
	for _, name := range []string{"geometric-median", "mean-around-median"} {
		g, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if g.Name() != name {
			t.Fatalf("Name() = %q", g.Name())
		}
		if _, err := New(name, -1); err == nil {
			t.Fatalf("New(%q, -1) accepted", name)
		}
	}
}

func TestMedianFamilyByzantineInfo(t *testing.T) {
	if NewGeoMedian(3).MinWorkers() != 7 {
		t.Fatal("geo median min workers")
	}
	if NewMeanAroundMedian(3).MinWorkers() != 7 {
		t.Fatal("mean-around-median min workers")
	}
}

// Property: mean-around-median stays within the per-coordinate range of the
// honest values when f vectors are wild.
func TestQuickMeanAroundMedianBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for iter := 0; iter < 60; iter++ {
		f := rng.Intn(2) + 1
		n := 2*f + 1 + rng.Intn(6)
		d := rng.Intn(6) + 1
		honest := honestCloud(rng, n-f, d, constVec(d, 0), 1)
		grads := append([]tensor.Vector{}, honest...)
		for i := 0; i < f; i++ {
			grads = append(grads, constVec(d, 1e6*(rng.Float64()*2-1)))
		}
		out, err := Aggregate(NewMeanAroundMedian(f), grads)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < d; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, g := range honest {
				lo = math.Min(lo, g[j])
				hi = math.Max(hi, g[j])
			}
			// One wild value can enter the averaged window only if
			// it is closer to the median than an honest value —
			// impossible at 1e6 away. Allow tiny numerical slack.
			if out[j] < lo-1e-9 || out[j] > hi+1e-9 {
				t.Fatalf("iter %d coord %d: %v outside honest [%v, %v]", iter, j, out[j], lo, hi)
			}
		}
	}
}

func TestGenericBulyanRegistryComposites(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	n, f, d := 7, 1, 6
	grads := honestCloud(rng, n-f, d, constVec(d, 1), 0.05)
	grads = append(grads, constVec(d, -1e7))
	for _, name := range []string{"bulyan-median", "bulyan-geometric-median"} {
		g, err := New(name, f)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		out, err := Aggregate(g, grads)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for j := 0; j < d; j++ {
			if math.Abs(out[j]-1) > 0.5 {
				t.Fatalf("%s coord %d dragged to %v", name, j, out[j])
			}
		}
		if _, err := New(name, -1); err == nil {
			t.Fatalf("New(%q, -1) accepted", name)
		}
	}
}
