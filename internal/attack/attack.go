// Package attack implements the Byzantine worker behaviours used to evaluate
// AggregaThor: blind gradient corruption (random, reversed, non-finite) and
// the informed adversaries of the paper's threat model (§3.1) — colluding
// workers with access to every correct gradient that craft legitimate-looking
// but harmful vectors (§4.3, El Mhamdi et al.'s dimensional-leeway attack).
//
// An Attack forges the gradient a Byzantine worker submits at one step. The
// threat model gives the adversary the correct workers' gradients, so Forge
// receives them; blind attacks ignore that field.
package attack

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"aggregathor/internal/tensor"
)

// Context carries everything the paper's adversary is assumed to know at one
// step: the gradients of the correct workers (arbitrarily fast channels let
// the colluders collect them before the server does), the gradient the
// Byzantine worker would have computed honestly, and the cluster shape.
type Context struct {
	// Step is the current model-update index.
	Step int
	// Honest holds the correct workers' gradients for this step. Blind
	// attacks ignore it; omniscient attacks require it.
	Honest []tensor.Vector
	// Own is the gradient this worker would have submitted if honest.
	// May be nil for attacks that do not need it.
	Own tensor.Vector
	// N and F describe the cluster: total workers and Byzantine workers.
	N, F int
	// Dim is the model dimension d.
	Dim int
	// Rng is the adversary's seeded randomness source.
	Rng *rand.Rand
}

// Attack forges the vector one Byzantine worker submits. Implementations
// must not mutate the context's gradients.
type Attack interface {
	// Name returns the registry name of the attack.
	Name() string
	// Forge returns the Byzantine gradient for this step.
	Forge(ctx *Context) tensor.Vector
}

// Informed marks attacks whose Forge requires Context.Honest to be exactly
// the set of gradients the honest workers submit this round — the paper's
// omniscient-family adversaries. Deployments that cannot provide that
// guarantee (e.g. the udp backend with lossy model broadcasts, where each
// honest worker follows its own downlink schedule and may skip a round or
// train on a stale model) must reject these attacks rather than silently
// forging from wrong oracles. Attacks that merely use Honest as a fallback
// when Own is absent (Reversed) are not Informed.
type Informed interface {
	Attack
	// RequiresHonest reports that Forge depends on the honest gradients.
	RequiresHonest() bool
}

// NeedsHonest reports whether a is an informed attack: one whose forgeries
// are only right when Context.Honest is exactly what the honest workers
// submit. A nil attack (an honest worker) needs nothing.
func NeedsHonest(a Attack) bool {
	inf, ok := a.(Informed)
	return ok && inf.RequiresHonest()
}

// FirstInformed returns the informed attack (NeedsHonest) of the lowest worker
// id in byWorker — the name ps.RoundConfig.Informed carries — or "" when there
// is none. A name New rejects is not informed: validating it is the caller's.
func FirstInformed(byWorker map[int]string) string {
	for _, id := range slices.Sorted(maps.Keys(byWorker)) {
		if atk, _ := New(byWorker[id]); NeedsHonest(atk) {
			return byWorker[id]
		}
	}
	return ""
}

// Random submits Gaussian noise of standard deviation 100, the classic blind
// poisoning attack: a single such worker is enough to derail plain averaging.
type Random struct{}

// Name implements Attack.
func (Random) Name() string { return "random" }

// Forge implements Attack.
func (Random) Forge(ctx *Context) tensor.Vector {
	v := tensor.NewVector(ctx.Dim)
	for i := range v {
		v[i] = ctx.Rng.NormFloat64() * 100
	}
	return v
}

// Reversed submits the honest gradient negated and amplified 100 times — the
// "reversed gradient adversary" used by Draco's evaluation and adopted by the
// paper's comparison (§4.1).
type Reversed struct{}

// Name implements Attack.
func (Reversed) Name() string { return "reversed" }

// Forge implements Attack.
func (Reversed) Forge(ctx *Context) tensor.Vector {
	var base tensor.Vector
	switch {
	case ctx.Own != nil:
		base = ctx.Own.Clone()
	case len(ctx.Honest) > 0:
		base = tensor.Mean(ctx.Honest)
	default:
		base = tensor.NewVector(ctx.Dim)
	}
	base.Scale(-100)
	return base
}

// NegativeSum submits minus the sum of the honest gradients, attempting to
// cancel the whole round's progress under plain averaging.
type NegativeSum struct{}

// Name implements Attack.
func (NegativeSum) Name() string { return "negative-sum" }

// RequiresHonest implements Informed: the forged sum is built from the
// honest gradients.
func (NegativeSum) RequiresHonest() bool { return true }

// Forge implements Attack.
func (NegativeSum) Forge(ctx *Context) tensor.Vector {
	out := tensor.NewVector(ctx.Dim)
	for _, g := range ctx.Honest {
		out.Add(g)
	}
	out.Scale(-1)
	return out
}

// NonFinite submits NaN coordinates — "a crucial feature when facing actual
// malicious workers" that the paper's GAR implementations must absorb.
type NonFinite struct{}

// Name implements Attack.
func (NonFinite) Name() string { return "non-finite" }

// Forge implements Attack.
func (NonFinite) Forge(ctx *Context) tensor.Vector {
	v := tensor.NewVector(ctx.Dim)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

// Mimic replays the first correct worker's gradient, the stealthiest
// possible behaviour: undetectable by construction and harmless in
// isolation, it exists to verify robust GARs do not over-penalise plausible
// vectors.
type Mimic struct{}

// Name implements Attack.
func (Mimic) Name() string { return "mimic" }

// RequiresHonest implements Informed: the copied target is an honest
// gradient.
func (Mimic) RequiresHonest() bool { return true }

// Forge implements Attack.
func (Mimic) Forge(ctx *Context) tensor.Vector {
	if len(ctx.Honest) == 0 {
		return tensor.NewVector(ctx.Dim)
	}
	return ctx.Honest[0].Clone()
}

// LittleIsEnough implements the "a little is enough" style attack: submit
// the honest mean shifted by 1.5 standard deviations per coordinate. The
// small shift keeps the vector within the selection envelope of weak GARs
// while steadily biasing convergence — the §4.3 "legitimate but harmful"
// vector.
type LittleIsEnough struct{}

// Name implements Attack.
func (LittleIsEnough) Name() string { return "little-is-enough" }

// RequiresHonest implements Informed: the perturbation is scaled to the
// honest gradients' coordinate spread.
func (LittleIsEnough) RequiresHonest() bool { return true }

// Forge implements Attack.
func (LittleIsEnough) Forge(ctx *Context) tensor.Vector {
	if len(ctx.Honest) == 0 {
		return tensor.NewVector(ctx.Dim)
	}
	mean := tensor.Mean(ctx.Honest)
	std := coordinateStd(ctx.Honest, mean)
	for j := range mean {
		mean[j] -= 1.5 * std[j]
	}
	return mean
}

// Omniscient implements the dimensional-leeway attack of El Mhamdi et al.
// (the paper's Figure 9): the colluders submit the honest mean with
// coordinate 0 deviated by the selection budget — roughly the honest
// workers' disagreement amplified by √d — steering convergence toward a bad
// optimum while remaining inside the acceptance cone of weakly
// Byzantine-resilient GARs.
type Omniscient struct{}

// Name implements Attack.
func (Omniscient) Name() string { return "omniscient" }

// RequiresHonest implements Informed: the dimensional leeway is computed
// from the honest gradients.
func (Omniscient) RequiresHonest() bool { return true }

// Forge implements Attack.
func (Omniscient) Forge(ctx *Context) tensor.Vector {
	if len(ctx.Honest) == 0 {
		return tensor.NewVector(ctx.Dim)
	}
	mean := tensor.Mean(ctx.Honest)
	// Honest disagreement: average distance of an honest gradient to the
	// mean. The dimensional leeway lets the attacker spend this entire
	// budget on a single coordinate — the Figure 9 construction.
	var disagreement float64
	for _, g := range ctx.Honest {
		disagreement += tensor.Distance(g, mean)
	}
	disagreement /= float64(len(ctx.Honest))

	// Solve the Krum selection inequality for the deviation ε. The f
	// colluders submit identical vectors at distance √(h²+ε²) from each
	// honest gradient (h ≈ disagreement) but distance 0 from each other,
	// so with k = n−f−2 scored neighbours an attacker needs
	//   (k−f+1)(h²+ε²) ≤ k·2h²   (honest pairs sit ≈ √2·h apart)
	// giving ε² ≤ (2k/(k−f+1) − 1)·h². A 0.9 safety factor keeps the
	// forged vector strictly inside the acceptance region.
	k := ctx.N - ctx.F - 2
	if k < 1 {
		k = 1
	}
	den := k - ctx.F + 1
	if den < 1 {
		den = 1
	}
	ratio := 2*float64(k)/float64(den) - 1
	if ratio < 0.25 {
		ratio = 0.25
	}
	eps := 0.9 * math.Sqrt(ratio) * disagreement
	mean[0] -= eps
	return mean
}

// Stale replays the honest mean of the *previous* step — a subtle
// staleness/replay attack: the vector is perfectly plausible (it was a
// correct aggregate one step ago) yet systematically lags the optimisation,
// dragging convergence. Robust GARs accept it (it sits inside the honest
// cloud), which is correct behaviour: staleness of one step is within the
// gradient-noise envelope the convergence analysis already absorbs.
type Stale struct {
	last []float64
}

// Name implements Attack.
func (*Stale) Name() string { return "stale" }

// RequiresHonest implements Informed: the replayed gradients are captured
// from the honest workers.
func (*Stale) RequiresHonest() bool { return true }

// Forge implements Attack.
func (s *Stale) Forge(ctx *Context) tensor.Vector {
	var replay tensor.Vector
	if s.last != nil && len(s.last) == ctx.Dim {
		replay = tensor.Vector(s.last).Clone()
	} else {
		replay = tensor.NewVector(ctx.Dim)
	}
	if len(ctx.Honest) > 0 {
		mean := tensor.Mean(ctx.Honest)
		s.last = append(s.last[:0], mean...)
	}
	return replay
}

// coordinateStd returns the per-coordinate standard deviation of vs around
// the provided mean.
func coordinateStd(vs []tensor.Vector, mean tensor.Vector) tensor.Vector {
	d := mean.Dim()
	out := tensor.NewVector(d)
	if len(vs) < 2 {
		return out
	}
	for _, v := range vs {
		for j := 0; j < d; j++ {
			diff := v[j] - mean[j]
			out[j] += diff * diff
		}
	}
	for j := 0; j < d; j++ {
		out[j] = math.Sqrt(out[j] / float64(len(vs)-1))
	}
	return out
}

// Factory builds an Attack from a registry name.
type Factory func() Attack

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a named attack factory; duplicate or empty names panic.
func Register(name string, factory Factory) {
	if name == "" || factory == nil {
		panic("attack: Register with empty name or nil factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("attack: duplicate registration of %q", name))
	}
	registry[name] = factory
}

// New builds the named attack.
func New(name string) (Attack, error) {
	registryMu.RLock()
	factory, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("attack: unknown attack %q (available: %v)", name, Names())
	}
	return factory(), nil
}

// Names returns the sorted registered attack names.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("random", func() Attack { return Random{} })
	Register("reversed", func() Attack { return Reversed{} })
	Register("negative-sum", func() Attack { return NegativeSum{} })
	Register("non-finite", func() Attack { return NonFinite{} })
	Register("mimic", func() Attack { return Mimic{} })
	Register("little-is-enough", func() Attack { return LittleIsEnough{} })
	Register("omniscient", func() Attack { return Omniscient{} })
	Register("stale", func() Attack { return &Stale{} })
}
