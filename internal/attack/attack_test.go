package attack

import (
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/gar"
	"aggregathor/internal/tensor"
)

func testCtx(rng *rand.Rand, nHonest, d int) *Context {
	honest := make([]tensor.Vector, nHonest)
	for i := range honest {
		v := tensor.NewVector(d)
		for j := range v {
			v[j] = 1 + rng.NormFloat64()*0.1
		}
		honest[i] = v
	}
	var own tensor.Vector
	if nHonest > 0 {
		own = honest[0].Clone()
	}
	return &Context{
		Step:   3,
		Honest: honest,
		Own:    own,
		N:      nHonest + 2,
		F:      2,
		Dim:    d,
		Rng:    rng,
	}
}

func TestRandomForge(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(1)), 5, 16)
	v := Random{}.Forge(ctx)
	if v.Dim() != 16 {
		t.Fatalf("dim %d, want 16", v.Dim())
	}
	if norm := math.Sqrt(v.SquaredNorm()); norm < 10 {
		t.Fatalf("random attack suspiciously small: %v", norm)
	}
}

func TestReversedForge(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(2)), 5, 8)
	v := Reversed{}.Forge(ctx)
	for j := range v {
		if v[j] != -100*ctx.Own[j] {
			t.Fatalf("coord %d: got %v, want %v", j, v[j], -100*ctx.Own[j])
		}
	}
}

func TestReversedWithoutOwnFallsBackToMean(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(3)), 4, 4)
	ctx.Own = nil
	v := Reversed{}.Forge(ctx)
	mean := tensor.Mean(ctx.Honest)
	for j := range v {
		if math.Abs(v[j]+100*mean[j]) > 1e-10 {
			t.Fatalf("coord %d: got %v, want %v", j, v[j], -100*mean[j])
		}
	}
}

func TestReversedDoesNotMutateOwn(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(4)), 3, 4)
	before := ctx.Own.Clone()
	Reversed{}.Forge(ctx)
	for j := range before {
		if ctx.Own[j] != before[j] {
			t.Fatal("Own mutated by Reversed")
		}
	}
}

func TestNegativeSum(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(5)), 3, 4)
	v := NegativeSum{}.Forge(ctx)
	want := tensor.NewVector(4)
	for _, g := range ctx.Honest {
		want.Add(g)
	}
	for j := range v {
		if math.Abs(v[j]+want[j]) > 1e-12 {
			t.Fatalf("coord %d mismatch", j)
		}
	}
}

func TestNonFiniteForgesNaN(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(6)), 2, 8)
	for j, x := range (NonFinite{}).Forge(ctx) {
		if !math.IsNaN(x) {
			t.Fatalf("coord %d = %v, want NaN", j, x)
		}
	}
}

func TestMimicCopiesTarget(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(7)), 4, 4)
	v := Mimic{}.Forge(ctx)
	for j := range v {
		if v[j] != ctx.Honest[0][j] {
			t.Fatal("mimic did not copy the first honest gradient")
		}
	}
	v[0] = 999
	if ctx.Honest[0][0] == 999 {
		t.Fatal("mimic aliases the honest gradient")
	}
}

func TestLittleIsEnoughStaysNearMean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ctx := testCtx(rng, 10, 16)
	v := LittleIsEnough{}.Forge(ctx)
	mean := tensor.Mean(ctx.Honest)
	// Shift must be bounded by z*sigma per coordinate (sigma ~ 0.1).
	for j := range v {
		if math.Abs(v[j]-mean[j]) > 1.5*0.5 {
			t.Fatalf("coord %d shifted too far: %v vs %v", j, v[j], mean[j])
		}
	}
}

// The headline threat: the omniscient attack defeats plain averaging and
// meaningfully shifts a weak GAR's target coordinate, while BULYAN's
// coordinate-wise phase pins the output to the honest range.
func TestOmniscientSelectedByKrumButBoundedByBulyan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, f, d := 19, 4, 64
	honest := make([]tensor.Vector, n-f)
	for i := range honest {
		v := tensor.NewVector(d)
		for j := range v {
			v[j] = 1 + rng.NormFloat64()*0.2
		}
		honest[i] = v
	}
	ctx := &Context{Honest: honest, N: n, F: f, Dim: d, Rng: rng}
	atk := Omniscient{}
	grads := append([]tensor.Vector{}, honest...)
	for i := 0; i < f; i++ {
		grads = append(grads, atk.Forge(ctx))
	}

	// The forged vector is close enough to the crowd to be selected by
	// MULTI-KRUM at least sometimes (it matches the mean in d-1 coords).
	mk := gar.NewMultiKrum(f)
	sel, err := mk.Select(grads)
	if err != nil {
		t.Fatal(err)
	}
	byzSelected := 0
	for _, idx := range sel {
		if idx >= n-f {
			byzSelected++
		}
	}
	if byzSelected == 0 {
		t.Fatal("omniscient attack was never selected by Multi-Krum; attack lost its leeway")
	}

	// Bulyan bounds the attacked coordinate to the honest range.
	bl := gar.NewBulyan(f)
	out, err := gar.Aggregate(bl, grads)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, g := range honest {
		lo = math.Min(lo, g[0])
		hi = math.Max(hi, g[0])
	}
	if out[0] < lo || out[0] > hi {
		t.Fatalf("Bulyan coordinate 0 escaped honest range: %v not in [%v, %v]", out[0], lo, hi)
	}

	// Multi-Krum's output on the attacked coordinate is dragged below the
	// honest minimum scaled by the attack budget — the weak-resilience gap.
	weak, err := gar.Aggregate(mk, grads)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("honest range [%v, %v], multi-krum=%v bulyan=%v", lo, hi, weak[0], out[0])
}

func TestOmniscientDeviatesCoordinateZero(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ctx := testCtx(rng, 6, 8)
	v := Omniscient{}.Forge(ctx)
	mean := tensor.Mean(ctx.Honest)
	// Only coordinate 0 deviates from the mean.
	for j := range v {
		if j == 0 {
			if v[j] == mean[j] {
				t.Fatal("target coordinate not attacked")
			}
			continue
		}
		if math.Abs(v[j]-mean[j]) > 1e-12 {
			t.Fatalf("non-target coordinate %d deviated", j)
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{
		"random", "reversed", "negative-sum", "non-finite",
		"mimic", "little-is-enough", "omniscient",
	} {
		a, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("Name mismatch for %q: %q", name, a.Name())
		}
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("want error for unknown attack")
	}
	names := Names()
	if len(names) < 7 {
		t.Fatalf("expected at least 7 attacks, got %v", names)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Register("random", func() Attack { return Random{} })
}

func TestAttacksEmptyHonestSafe(t *testing.T) {
	ctx := &Context{Dim: 4, Rng: rand.New(rand.NewSource(11))}
	for _, name := range Names() {
		a, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		v := a.Forge(ctx)
		if v.Dim() != 4 {
			t.Fatalf("%s: dim %d, want 4", name, v.Dim())
		}
	}
}
