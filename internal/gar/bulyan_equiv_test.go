package gar

import (
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/tensor"
)

// randomGrads draws n random gradients of dimension d. With ties, some
// vectors are exact duplicates (mutually-nearest pairs produce exactly tied
// Krum scores — the case the lexicographic tie-break exists for), and with
// poison, some vectors carry non-finite coordinates.
func randomGrads(rng *rand.Rand, n, d int, ties bool, poison int) []tensor.Vector {
	grads := make([]tensor.Vector, n)
	for i := range grads {
		v := tensor.NewVector(d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		grads[i] = v
	}
	if ties {
		for i := 1; i < n; i += 3 {
			grads[i] = grads[i-1].Clone()
		}
	}
	for i := 0; i < poison && i < n; i++ {
		v := grads[n-1-i]
		for j := range v {
			switch rng.Intn(3) {
			case 0:
				v[j] = math.NaN()
			case 1:
				v[j] = math.Inf(1)
			default:
				v[j] = math.Inf(-1)
			}
		}
	}
	return grads
}

// TestBulyanSelectMatchesNaive drives the optimised distance-reuse selection
// and the reference from-scratch selection across randomized (n, f, d) cases
// and asserts they extract identical index sequences — including under exact
// ties and non-finite poisoning.
func TestBulyanSelectMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := 0
	for _, f := range []int{0, 1, 2} {
		for _, extra := range []int{0, 1, 3, 6} {
			n := 4*f + 3 + extra
			for _, d := range []int{1, 3, 17} {
				for _, ties := range []bool{false, true} {
					for _, poison := range []int{0, f, n} {
						for rep := 0; rep < 3; rep++ {
							cases++
							grads := randomGrads(rng, n, d, ties, poison)
							b := NewBulyan(f)
							got, err := b.selectInto(new(Workspace), grads)
							if err != nil {
								t.Fatalf("n=%d f=%d d=%d: selectInto: %v", n, f, d, err)
							}
							want := selectNaive(grads, f)
							if len(got) != len(want) {
								t.Fatalf("n=%d f=%d d=%d ties=%v poison=%d: %d vs %d selections",
									n, f, d, ties, poison, len(got), len(want))
							}
							for i := range got {
								if got[i] != want[i] {
									t.Fatalf("n=%d f=%d d=%d ties=%v poison=%d: selection %d: optimised %v, naive %v",
										n, f, d, ties, poison, i, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
	if cases < 100 {
		t.Fatalf("only %d cases exercised", cases)
	}
}
