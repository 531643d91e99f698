package tensor

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestVectorAddSubScale(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	v.Add(w)
	if v[0] != 5 || v[1] != 7 || v[2] != 9 {
		t.Fatalf("Add: got %v", v)
	}
	v.Axpy(-1, w)
	if v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatalf("Axpy(-1): got %v", v)
	}
	v.Scale(2)
	if v[0] != 2 || v[1] != 4 || v[2] != 6 {
		t.Fatalf("Scale: got %v", v)
	}
}

func TestVectorAxpy(t *testing.T) {
	v := Vector{1, 1}
	v.Axpy(3, Vector{2, -1})
	if v[0] != 7 || v[1] != -2 {
		t.Fatalf("Axpy: got %v", v)
	}
}

func TestVectorDotNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm(); got != 5 {
		t.Fatalf("Norm: got %v, want 5", got)
	}
	if got := v.SquaredNorm(); got != 25 {
		t.Fatalf("SquaredNorm: got %v, want 25", got)
	}
}

func TestVectorDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	v := Vector{1}
	v.Add(Vector{1, 2})
}

func TestSquaredDistance(t *testing.T) {
	v := Vector{0, 0}
	w := Vector{3, 4}
	if got := SquaredDistance(v, w); got != 25 {
		t.Fatalf("SquaredDistance: got %v, want 25", got)
	}
	if got := Distance(v, w); got != 5 {
		t.Fatalf("Distance: got %v, want 5", got)
	}
}

func TestSquaredDistanceNonFiniteSaturates(t *testing.T) {
	cases := []struct {
		name string
		v, w Vector
	}{
		{"nan-left", Vector{math.NaN(), 0}, Vector{0, 0}},
		{"nan-right", Vector{0, 0}, Vector{0, math.NaN()}},
		{"inf-left", Vector{math.Inf(1), 0}, Vector{0, 0}},
		{"inf-both-cancel", Vector{math.Inf(1), 0}, Vector{math.Inf(1), 0}},
		{"neg-inf", Vector{math.Inf(-1), 0}, Vector{0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := SquaredDistance(tc.v, tc.w)
			if !math.IsInf(got, 1) {
				t.Fatalf("got %v, want +Inf", got)
			}
		})
	}
}

func TestFingerprint(t *testing.T) {
	// FNV-1a test vector: the eight little-endian bytes of 1.0.
	h := fnv.New64a()
	h.Write([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	if got := (Vector{1}).Fingerprint(); got != h.Sum64() {
		t.Fatalf("Fingerprint(1.0) = %#x, want FNV-1a %#x", got, h.Sum64())
	}
	if (Vector{1, 2}).Fingerprint() == (Vector{2, 1}).Fingerprint() {
		t.Fatal("fingerprint ignores coordinate order")
	}
	if (Vector{0}).Fingerprint() == (Vector{math.Copysign(0, -1)}).Fingerprint() {
		t.Fatal("fingerprint must tell -0 from +0: it compares bits, not values")
	}
	payload := math.Float64frombits(0x7ff8000000000001) // NaN, non-canonical payload
	if (Vector{3, math.NaN()}).Fingerprint() != (Vector{3, payload}).Fingerprint() {
		t.Fatal("NaN payloads split the vote")
	}
}

func TestIsFiniteAndCount(t *testing.T) {
	if !(Vector{1, 2, 3}).IsFinite() {
		t.Fatal("finite vector reported non-finite")
	}
	v := Vector{1, math.NaN(), math.Inf(1), math.Inf(-1)}
	if v.IsFinite() {
		t.Fatal("non-finite vector reported finite")
	}
	if got := v.CountNonFinite(); got != 3 {
		t.Fatalf("CountNonFinite: got %d, want 3", got)
	}
}

func TestMeanOfVectors(t *testing.T) {
	got := Mean([]Vector{{1, 2}, {3, 4}, {5, 6}})
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("Mean: got %v", got)
	}
}

// TestMeanIntoMatchesSequentialAdds: the four-at-a-time sum is one Add per
// input, bit for bit, whatever the inputs hold.
func TestMeanIntoMatchesSequentialAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	specials := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	const dim = 67
	for _, n := range []int{1, 3, 4, 5, 19} {
		vs := make([]Vector, n)
		for i := range vs {
			vs[i] = NewVector(dim)
			for j := range vs[i] {
				if vs[i][j] = rng.NormFloat64(); rng.Intn(8) == 0 {
					vs[i][j] = specials[rng.Intn(len(specials))]
				}
			}
		}
		for j := 0; j < 4; j++ {
			for i := range vs {
				vs[i][j] = math.Copysign(0, -1) // a column of −0 sums to +0 from a +0 start
			}
		}
		want := NewVector(dim)
		for _, v := range vs {
			want.Add(v)
		}
		want.Scale(1 / float64(n))
		got := NewVector(dim)
		got.Fill(math.Float64frombits(rng.Uint64()))
		MeanInto(got, vs)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) && !(math.IsNaN(got[j]) && math.IsNaN(want[j])) {
				t.Fatalf("n=%d coordinate %d: %v (%#x), sequential adds give %v (%#x)", n, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a mis-sized fourth input must panic")
		}
	}()
	MeanInto(NewVector(2), []Vector{{1, 2}, {1, 2}, {1, 2}, {1}})
}

func TestMeanEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mean(nil)
}

func TestNaNMean(t *testing.T) {
	nan := math.NaN()
	got := columnPass([]Vector{{1, nan, nan}, {3, 2, nan}}, 0, NaNMeanKernel)
	if got[0] != 2 {
		t.Fatalf("coordinate 0: got %v, want 2", got[0])
	}
	if got[1] != 2 {
		t.Fatalf("coordinate 1: got %v, want 2 (NaN skipped)", got[1])
	}
	if got[2] != 0 {
		t.Fatalf("coordinate 2: got %v, want 0 (all NaN)", got[2])
	}
}

func TestVectorMinMaxMeanClamp(t *testing.T) {
	v := Vector{-2, 0, 5}
	if v.Min() != -2 || v.Max() != 5 {
		t.Fatalf("Min/Max: got %v/%v", v.Min(), v.Max())
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases original storage")
	}
}

// Property: distance is symmetric and non-negative.
func TestQuickDistanceSymmetric(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		v, w := Vector(a[:n]), Vector(b[:n])
		d1, d2 := SquaredDistance(v, w), SquaredDistance(w, v)
		return d1 == d2 && d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the mean of identical vectors is that vector.
func TestQuickMeanOfIdentical(t *testing.T) {
	f := func(xs []float64, kRaw uint8) bool {
		if len(xs) == 0 {
			return true
		}
		k := int(kRaw%5) + 1
		vs := make([]Vector, k)
		for i := range vs {
			vs[i] = Vector(xs).Clone()
		}
		got := Mean(vs)
		for j := range xs {
			if math.IsNaN(xs[j]) || math.Abs(xs[j]) > math.MaxFloat64/float64(k+1) {
				continue // summing k copies would overflow
			}
			if !almostEqual(got[j], xs[j], 1e-9*(1+math.Abs(xs[j]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for Distance over finite vectors.
func TestQuickTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		d := rng.Intn(20) + 1
		a, b, c := NewVector(d), NewVector(d), NewVector(d)
		for j := 0; j < d; j++ {
			a[j], b[j], c[j] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		if Distance(a, c) > Distance(a, b)+Distance(b, c)+1e-9 {
			t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
		}
	}
}
