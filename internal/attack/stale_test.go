package attack

import (
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/tensor"
)

func TestStaleFirstStepIsZero(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(20)), 4, 6)
	s := &Stale{}
	v := s.Forge(ctx)
	if v.SquaredNorm() != 0 {
		t.Fatalf("first forge must be the null vector, got %v", v)
	}
}

func TestStaleReplaysPreviousMean(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := &Stale{}
	ctx1 := testCtx(rng, 4, 6)
	mean1 := tensor.Mean(ctx1.Honest)
	s.Forge(ctx1) // records mean1

	ctx2 := testCtx(rng, 4, 6) // different honest gradients
	v := s.Forge(ctx2)
	for j := range v {
		if math.Abs(v[j]-mean1[j]) > 1e-12 {
			t.Fatalf("coord %d: replay %v, want previous mean %v", j, v[j], mean1[j])
		}
	}
}

func TestStaleOutputIsIndependentCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	s := &Stale{}
	s.Forge(testCtx(rng, 3, 4))
	v := s.Forge(testCtx(rng, 3, 4))
	v[0] = 1e9
	w := s.Forge(testCtx(rng, 3, 4))
	if w[0] == 1e9 {
		t.Fatal("forged vectors alias internal state")
	}
}

func TestStaleRegistered(t *testing.T) {
	a, err := New("stale")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "stale" {
		t.Fatalf("name %q", a.Name())
	}
	// Two forges through the registry instance must exercise the stateful
	// path without panicking on an empty context.
	ctx := &Context{Dim: 3, Rng: rand.New(rand.NewSource(23))}
	a.Forge(ctx)
	a.Forge(ctx)
}
