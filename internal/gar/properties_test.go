package gar_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/draco"
	. "aggregathor/internal/gar"
	"aggregathor/internal/tensor"
)

// propertyCase binds one rule — every registry rule, plus Draco's repetition
// plan, the one rule built outside the registry — to a cluster shape all of
// them can operate at: n = 11, f = 2 (bulyan's 4f+3 floor).
type propertyCase struct {
	name string
	rule GAR
	// group > 1 says the rule votes over runs of group consecutive slots that
	// honest workers fill with bit-identical gradients (Draco's redundancy
	// groups): honest inputs come in such runs, and a slot's position is part
	// of its meaning, so the permutation row does not apply.
	group int
	// poison is how many Byzantine inputs the rule is expected to absorb
	// without emitting non-finite coordinates. Rules exposing ByzantineInfo
	// declare it themselves; coordinate-wise median tolerates any minority;
	// plain averaging and NaN-skipping averaging tolerate none (averaging
	// is the paper's non-resilient baseline by design).
	poison int
	// nanOnly restricts the poison payload to NaN (selective-average skips
	// NaN by contract but has no defence against ±Inf).
	nanOnly bool
}

const (
	propN = 11
	propF = 2
	propD = 13
)

func propertyCases(t *testing.T) []propertyCase {
	t.Helper()
	var cases []propertyCase
	for _, name := range Names() {
		rule, err := New(name, propF)
		if err != nil {
			t.Fatalf("building %s(f=%d): %v", name, propF, err)
		}
		c := propertyCase{name: name, rule: rule}
		if info, ok := rule.(ByzantineInfo); ok {
			if min := info.MinWorkers(); min > propN {
				t.Fatalf("%s(f=%d) needs %d workers, property grid has %d", name, propF, min, propN)
			}
			c.poison = info.F()
		}
		switch name {
		case "median":
			c.poison = propF // any minority of poisoned columns
		case "selective-average":
			c.poison = propF
			c.nanOnly = true
		}
		cases = append(cases, c)
	}
	if len(cases) < 7 {
		t.Fatalf("registry shrank to %d rules", len(cases))
	}
	plan, err := draco.NewPlan(propN, propF, draco.Repetition)
	if err != nil {
		t.Fatal(err)
	}
	return append(cases, propertyCase{name: plan.Name(), rule: plan, group: plan.Redundancy(), poison: plan.F()})
}

// honestGrads draws n finite random gradients — every run of group slots a
// set of copies of one draw when group > 1.
func honestGrads(rng *rand.Rand, n, d, group int) []tensor.Vector {
	out := make([]tensor.Vector, n)
	for i := range out {
		if group > 1 && i%group != 0 {
			out[i] = out[i-1].Clone()
			continue
		}
		v := tensor.NewVector(d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// almostEqual compares coordinates with a relative tolerance: selection rules
// are bit-exact under permutation, but rules that average accept reordered
// floating-point summation.
func almostEqual(a, b tensor.Vector) bool {
	if a.Dim() != b.Dim() {
		return false
	}
	for i := range a {
		diff := math.Abs(a[i] - b[i])
		scale := math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i])))
		if diff > 1e-9*scale {
			return false
		}
	}
	return true
}

// TestRegistryPermutationInvariance: the aggregate may not depend on the
// order gradients arrived from the network.
func TestRegistryPermutationInvariance(t *testing.T) {
	for _, tc := range propertyCases(t) {
		if tc.group > 1 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			for rep := 0; rep < 5; rep++ {
				grads := honestGrads(rng, propN, propD, 0)
				base, err := tc.rule.Aggregate(grads)
				if err != nil {
					t.Fatal(err)
				}
				perm := make([]tensor.Vector, propN)
				for i, p := range rng.Perm(propN) {
					perm[i] = grads[p]
				}
				permuted, err := tc.rule.Aggregate(perm)
				if err != nil {
					t.Fatal(err)
				}
				if !almostEqual(base, permuted) {
					t.Fatalf("rep %d: aggregate changed under permutation\n base %v\n perm %v", rep, base, permuted)
				}
			}
		})
	}
}

// TestRegistryUnanimity: when every worker submits the same gradient, the
// rule must return (numerically) that gradient.
func TestRegistryUnanimity(t *testing.T) {
	for _, tc := range propertyCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(202))
			g := tensor.NewVector(propD)
			for j := range g {
				g[j] = rng.NormFloat64() * 3
			}
			grads := make([]tensor.Vector, propN)
			for i := range grads {
				grads[i] = g.Clone()
			}
			out, err := tc.rule.Aggregate(grads)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(out, g) {
				t.Fatalf("unanimous input not returned:\n want %v\n got  %v", g, out)
			}
			// The input gradients must not have been mutated.
			for i, v := range grads {
				for j := range v {
					if v[j] != g[j] {
						t.Fatalf("input gradient %d mutated at coordinate %d", i, j)
					}
				}
			}
		})
	}
}

// TestRegistryNonFiniteContainment: with up to the rule's tolerated count of
// NaN/±Inf-poisoned inputs, no non-finite coordinate may reach the output.
func TestRegistryNonFiniteContainment(t *testing.T) {
	payloads := map[string]func(rng *rand.Rand) float64{
		"nan":  func(*rand.Rand) float64 { return math.NaN() },
		"+inf": func(*rand.Rand) float64 { return math.Inf(1) },
		"-inf": func(*rand.Rand) float64 { return math.Inf(-1) },
		"mixed": func(rng *rand.Rand) float64 {
			switch rng.Intn(3) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			default:
				return math.Inf(-1)
			}
		},
	}
	for _, tc := range propertyCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for payloadName, payload := range payloads {
				if tc.nanOnly && payloadName != "nan" {
					continue
				}
				rng := rand.New(rand.NewSource(303))
				for rep := 0; rep < 3; rep++ {
					grads := honestGrads(rng, propN, propD, tc.group)
					for i := 0; i < tc.poison; i++ {
						v := grads[propN-1-i]
						for j := range v {
							v[j] = payload(rng)
						}
					}
					out, err := tc.rule.Aggregate(grads)
					if err != nil {
						t.Fatalf("payload %s rep %d: %v", payloadName, rep, err)
					}
					if !out.IsFinite() {
						t.Fatalf("payload %s rep %d (%d poisoned of %d): non-finite output %v",
							payloadName, rep, tc.poison, propN, out)
					}
				}
			}
		})
	}
}

// TestRegistryShortRoundsSkip: a round that delivers fewer gradients than the
// rule needs is one a server skips — the rule says so through ErrNoGradients
// or ErrTooFewWorkers, never by panicking or with an error a server would
// abort on — and a refusal leaves the inputs as they were.
func TestRegistryShortRoundsSkip(t *testing.T) {
	for _, tc := range propertyCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			grads := honestGrads(rand.New(rand.NewSource(404)), propN, propD, tc.group)
			want := make([]tensor.Vector, propN)
			for i, g := range grads {
				want[i] = g.Clone()
			}
			refused := 0
			for k := 0; k <= propN; k++ {
				_, err := tc.rule.Aggregate(grads[:k])
				if err != nil && !errors.Is(err, ErrNoGradients) && !errors.Is(err, ErrTooFewWorkers) {
					t.Fatalf("%d of %d gradients: %v is not a skip sentinel", k, propN, err)
				}
				if err != nil {
					refused++
				}
			}
			if refused == 0 || refused > propN {
				t.Fatalf("%d of %d short rounds refused; want the empty round refused and the full one aggregated", refused, propN+1)
			}
			for i, g := range grads {
				if g.Fingerprint() != want[i].Fingerprint() {
					t.Fatalf("input gradient %d mutated", i)
				}
			}
		})
	}
}
