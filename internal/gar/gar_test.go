package gar

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/tensor"
)

// honestCloud returns n gradients drawn around a common mean g with noise
// sigma — the IID correct-worker model from the paper's analysis.
func honestCloud(rng *rand.Rand, n, d int, mean tensor.Vector, sigma float64) []tensor.Vector {
	out := make([]tensor.Vector, n)
	for i := range out {
		v := tensor.NewVector(d)
		for j := 0; j < d; j++ {
			v[j] = mean[j] + rng.NormFloat64()*sigma
		}
		out[i] = v
	}
	return out
}

func constVec(d int, x float64) tensor.Vector {
	v := tensor.NewVector(d)
	v.Fill(x)
	return v
}

func TestAverageAggregate(t *testing.T) {
	got, err := Aggregate(Average{}, []tensor.Vector{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestAverageErrors(t *testing.T) {
	if _, err := Aggregate(Average{}, nil); !errors.Is(err, ErrNoGradients) {
		t.Fatalf("want ErrNoGradients, got %v", err)
	}
	if _, err := Aggregate(Average{}, []tensor.Vector{{1}, {1, 2}}); err == nil {
		t.Fatal("want dimension mismatch error")
	}
}

func TestAverageDoesNotMutateInputs(t *testing.T) {
	a, b := tensor.Vector{1, 2}, tensor.Vector{3, 4}
	if _, err := Aggregate(Average{}, []tensor.Vector{a, b}); err != nil {
		t.Fatal(err)
	}
	if a[0] != 1 || b[0] != 3 {
		t.Fatal("inputs mutated")
	}
}

func TestSelectiveAverageSkipsNaN(t *testing.T) {
	nan := math.NaN()
	got, err := Aggregate(SelectiveAverage{}, []tensor.Vector{{nan, 4}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestMedianAggregate(t *testing.T) {
	got, err := Aggregate(Median{}, []tensor.Vector{{1}, {100}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatalf("got %v, want 2", got[0])
	}
}

func TestMedianResistsSingleOutlier(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := 10
	mean := constVec(d, 1)
	grads := honestCloud(rng, 8, d, mean, 0.1)
	grads = append(grads, constVec(d, 1e12)) // Byzantine blowup
	got, err := Aggregate(Median{}, grads)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < d; j++ {
		if math.Abs(got[j]-1) > 1 {
			t.Fatalf("median dragged to %v at coordinate %d", got[j], j)
		}
	}
}

func TestTrimmedMeanAggregate(t *testing.T) {
	tm := TrimmedMean{Beta: 1}
	got, err := Aggregate(tm, []tensor.Vector{{0}, {1}, {2}, {3}, {1e9}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatalf("got %v, want 2", got[0])
	}
}

func TestTrimmedMeanTooFewWorkers(t *testing.T) {
	tm := TrimmedMean{Beta: 2}
	if _, err := Aggregate(tm, []tensor.Vector{{1}, {2}, {3}}); !errors.Is(err, ErrTooFewWorkers) {
		t.Fatalf("want ErrTooFewWorkers, got %v", err)
	}
}

func TestGARNames(t *testing.T) {
	cases := []struct {
		g    GAR
		want string
	}{
		{Average{}, "average"},
		{SelectiveAverage{}, "selective-average"},
		{Median{}, "median"},
		{TrimmedMean{Beta: 1}, "trimmed-mean"},
		{NewKrum(1), "krum"},
		{NewMultiKrum(1), "multi-krum"},
		{NewBulyan(1), "bulyan"},
	}
	for _, tc := range cases {
		if got := tc.g.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestByzantineInfoContracts(t *testing.T) {
	cases := []struct {
		name    string
		info    ByzantineInfo
		f, minN int
	}{
		{"multi-krum", NewMultiKrum(4), 4, 11},
		{"bulyan", NewBulyan(4), 4, 19},
		{"bulyan-f1", NewBulyan(1), 1, 7},
		{"trimmed-mean", TrimmedMean{Beta: 3}, 3, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.info.F(); got != tc.f {
				t.Errorf("F() = %d, want %d", got, tc.f)
			}
			if got := tc.info.MinWorkers(); got != tc.minN {
				t.Errorf("MinWorkers() = %d, want %d", got, tc.minN)
			}
		})
	}
}
