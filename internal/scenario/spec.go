// Package scenario is the campaign engine of the reproduction: it expands a
// declarative sweep specification — the cross-product of gradient aggregation
// rule, Byzantine attack, cluster shape (worker count and declared f) and
// network condition — into deterministic per-seed training runs, executes
// them on a bounded worker pool, and reports structured per-run results plus
// a text summary ranking rules per attack.
//
// Determinism is a design requirement, not an accident: every run is fully
// seeded, aggregation cost comes from the analytic simnet model, and results
// are ordered by expansion index, so two executions of the same spec produce
// byte-identical JSON. That property is what lets future performance or
// robustness PRs diff campaign outputs directly.
package scenario

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"aggregathor/internal/attack"
	"aggregathor/internal/core"
	"aggregathor/internal/gar"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
)

// AttackNone is the baseline "attack" name: no Byzantine workers.
const AttackNone = "none"

// Cluster is one point on the cluster-shape axis: n workers with declared
// Byzantine tolerance f. For attacking runs the last F workers are Byzantine.
type Cluster struct {
	Workers int `json:"workers"`
	F       int `json:"f"`
}

// Network is one point on the network-condition axis: a named core.Network,
// embedded so its keys sit beside the name in the spec's JSON and the cell
// runs on it as it is.
type Network struct {
	// Name labels the condition in run IDs and reports ("in-process",
	// "lossy-udp", "tcp-distributed", ...). Required and unique within a
	// spec.
	Name string `json:"name"`
	core.Network
}

// Spec is a declarative campaign: the axes of the sweep plus the shared
// training configuration. Zero-valued fields take the documented defaults
// (see ApplyDefaults).
type Spec struct {
	// Name labels the campaign in reports.
	Name string `json:"name"`
	// Experiment is the model+dataset preset (core.Experiments).
	Experiment string `json:"experiment"`
	// GARs lists the aggregation rules to sweep; empty means every rule in
	// the gar registry.
	GARs []string `json:"gars"`
	// Attacks lists the Byzantine attacks to sweep; "none" is the honest
	// baseline. Empty means "none" plus every attack in the registry.
	Attacks []string `json:"attacks"`
	// Clusters lists the (workers, f) shapes to sweep.
	Clusters []Cluster `json:"clusters"`
	// Networks lists the network conditions to sweep.
	Networks []Network `json:"networks"`
	// Seeds lists the per-run base seeds; each (gar, attack, cluster,
	// network) cell runs once per seed.
	Seeds []int64 `json:"seeds"`
	// Steps is the number of model updates per run.
	Steps int `json:"steps"`
	// Batch is the per-worker mini-batch size.
	Batch int `json:"batch"`
	// Optimizer is the update rule name.
	Optimizer string `json:"optimizer"`
	// LR is the learning rate.
	LR float64 `json:"learningRate"`
	// EvalEvery evaluates accuracy every k steps.
	EvalEvery int `json:"evalEvery"`
	// Threshold is the accuracy level for the steps-to-threshold readout.
	Threshold float64 `json:"accuracyThreshold"`
	// Parallelism bounds the engine's worker pool; 0 means NumCPU.
	Parallelism int `json:"parallelism,omitempty"`
}

// Run is one expanded cell of the campaign cross-product.
type Run struct {
	// Index is the position in expansion order (and in Campaign.Results).
	Index int `json:"index"`
	// ID is the human-readable run key.
	ID      string  `json:"id"`
	GAR     string  `json:"gar"`
	Attack  string  `json:"attack"`
	Cluster Cluster `json:"cluster"`
	Network Network `json:"network"`
	Seed    int64   `json:"seed"`
}

// ApplyDefaults fills unset fields in place with the campaign defaults:
// every registered GAR, "none" plus every registered attack, one 11-worker
// f=2 cluster, the in-process perfect network, seed 1, and a short
// features-mlp training config.
func (s *Spec) ApplyDefaults() {
	if s.Name == "" {
		s.Name = "campaign"
	}
	if s.Experiment == "" {
		s.Experiment = "features-mlp"
	}
	if len(s.GARs) == 0 {
		s.GARs = gar.Names()
	}
	if len(s.Attacks) == 0 {
		s.Attacks = append([]string{AttackNone}, attack.Names()...)
	}
	if len(s.Clusters) == 0 {
		s.Clusters = []Cluster{{Workers: 11, F: 2}}
	}
	if len(s.Networks) == 0 {
		s.Networks = []Network{{Name: "in-process"}}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	if s.Steps == 0 {
		s.Steps = 20
	}
	if s.Batch == 0 {
		s.Batch = 16
	}
	if s.Optimizer == "" {
		s.Optimizer = "rmsprop"
	}
	if s.LR == 0 {
		s.LR = 1e-3
	}
	if s.EvalEvery == 0 {
		s.EvalEvery = 5
	}
	if s.Threshold == 0 {
		s.Threshold = 0.5
	}
}

// Validate checks what is the campaign's own — every axis name against its
// registry, the sweep's shape, the training constants — and then asks
// core.Config.Validate about every distinct (network, cluster, attack) cell,
// built by the same cellConfig that executes it. Value ranges, which backend
// can express which axis and which axes compose are decided there, once; a
// sweep containing a cell no deployment can run fails here, before any cell
// runs, instead of scattering the same failure across Result.Error rows. It
// assumes ApplyDefaults has run.
func (s *Spec) Validate() error {
	if _, err := core.LookupExperiment(s.Experiment); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	known := map[string]bool{}
	for _, name := range gar.Names() {
		known[name] = true
	}
	for _, g := range s.GARs {
		if !known[g] {
			return fmt.Errorf("scenario: unknown GAR %q (available: %v)", g, gar.Names())
		}
	}
	knownAtk := map[string]bool{AttackNone: true}
	for _, name := range attack.Names() {
		knownAtk[name] = true
	}
	for _, a := range s.Attacks {
		if !knownAtk[a] {
			return fmt.Errorf("scenario: unknown attack %q (available: none, %v)", a, attack.Names())
		}
	}
	for i, c := range s.Clusters {
		if c.Workers < 1 {
			return fmt.Errorf("scenario: cluster %d has %d workers", i, c.Workers)
		}
		if c.F < 0 || c.F >= c.Workers {
			return fmt.Errorf("scenario: cluster %d has f=%d outside [0, %d)", i, c.F, c.Workers)
		}
	}
	if _, err := opt.New(s.Optimizer, opt.Fixed{Rate: s.LR}); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if s.Steps < 1 || s.Batch < 1 || s.EvalEvery < 1 {
		return fmt.Errorf("scenario: steps=%d batch=%d evalEvery=%d must all be >= 1",
			s.Steps, s.Batch, s.EvalEvery)
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("scenario: negative parallelism")
	}
	if err := cmp.Or(unique("GAR", s.GARs), unique("attack", s.Attacks), unique("cluster", s.Clusters), unique("seed", s.Seeds)); err != nil {
		return err
	}
	seen := map[string]bool{}
	for i, n := range s.Networks {
		if n.Name == "" {
			return fmt.Errorf("scenario: network %d has no name", i)
		}
		if seen[n.Name] {
			return fmt.Errorf("scenario: duplicate network name %q", n.Name)
		}
		seen[n.Name] = true
		for _, c := range s.Clusters {
			for _, a := range s.Attacks {
				// The rule and the seed do not bear on a cell's validity (an
				// n too small for a rule is an infeasible run, recorded per
				// cell), so the cell is built without them.
				if err := s.cellConfig(Run{Attack: a, Cluster: c, Network: n}).Validate(); err != nil {
					return fmt.Errorf("scenario: network %q (attack %q, n=%d): %w", n.Name, a, c.Workers, err)
				}
			}
		}
	}
	return nil
}

// unique rejects an axis that lists a value twice: its cells would run again
// under the same run IDs.
func unique[T comparable](axis string, values []T) error {
	for i, v := range values {
		if slices.Index(values, v) < i {
			return fmt.Errorf("scenario: %s %+v is listed twice", axis, v)
		}
	}
	return nil
}

// cellConfig maps one campaign cell onto the core experiment that runs it;
// Validate and executeRun both go through it.
func (s *Spec) cellConfig(r Run) core.Config {
	cfg := core.Config{
		Experiment: s.Experiment,
		Network:    r.Network.Network,
		Aggregator: r.GAR,
		F:          r.Cluster.F,
		Workers:    r.Cluster.Workers,
		Batch:      s.Batch,
		Optimizer:  s.Optimizer,
		LR:         s.LR,
		Steps:      s.Steps,
		EvalEvery:  s.EvalEvery,
		Seed:       r.Seed,
	}
	// The last F workers are the Byzantine ones (UDP links are assigned
	// from the front, so lossy-link and Byzantine roles overlap only when
	// the whole cluster is lossy).
	if r.Attack != AttackNone {
		cfg.Attacks = map[int]string{}
		for w := r.Cluster.Workers - r.Cluster.F; w < r.Cluster.Workers; w++ {
			cfg.Attacks[w] = r.Attack
		}
	}
	return cfg
}

// Expand enumerates the campaign cross-product in deterministic order:
// GAR (outermost) → attack → cluster → network → seed.
func (s *Spec) Expand() []Run {
	runs := make([]Run, 0, len(s.GARs)*len(s.Attacks)*len(s.Clusters)*len(s.Networks)*len(s.Seeds))
	for _, g := range s.GARs {
		for _, a := range s.Attacks {
			for _, c := range s.Clusters {
				for _, n := range s.Networks {
					for _, seed := range s.Seeds {
						runs = append(runs, Run{
							Index:   len(runs),
							ID:      fmt.Sprintf("%s/%s/n%d-f%d/%s/seed%d", g, a, c.Workers, c.F, n.Name, seed),
							GAR:     g,
							Attack:  a,
							Cluster: c,
							Network: n,
							Seed:    seed,
						})
					}
				}
			}
		}
	}
	return runs
}

// ParseSpec decodes a JSON spec, applies defaults and validates. Unknown
// fields are rejected so a typoed axis name fails loudly instead of silently
// sweeping the default.
func ParseSpec(raw []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	s.ApplyDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and parses a JSON spec file.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return ParseSpec(raw)
}

// SmokeSpec returns the built-in demonstration campaign used by the
// cmd/scenario default invocation, the Makefile smoke target and the
// determinism test: 4 GARs × (1 baseline + 3 attacks) × 2 network conditions
// on one 11-worker f=2 cluster.
func SmokeSpec() Spec {
	s := Spec{
		Name:       "smoke",
		Experiment: "features-mlp",
		GARs:       []string{"average", "median", "multi-krum", "bulyan"},
		Attacks:    []string{AttackNone, "random", "reversed", "little-is-enough"},
		Clusters:   []Cluster{{Workers: 11, F: 2}},
		Networks: []Network{
			{Name: "in-process"},
			{Name: "lossy-udp", Network: core.Network{UDPLinks: -1, DropRate: 0.1, Recoup: "fill-random", Protocol: "udp"}},
		},
		Seeds:     []int64{1},
		Steps:     60,
		Batch:     32,
		LR:        5e-3,
		EvalEvery: 10,
		Threshold: 0.25,
	}
	s.ApplyDefaults()
	return s
}

// UDPSmokeSpec returns the built-in udp-smoke campaign (see builtins).
func UDPSmokeSpec() Spec {
	s, _ := Builtin("udp-smoke")
	return s
}

// builtins are the campaigns cmd/scenario -builtin runs, in the order of the
// smoke golden file. smoke is SmokeSpec; every other row sweeps its networks
// over one skeleton: {median, multi-krum} × {none, reversed, non-finite} on
// 7 workers with f = 1, 30 steps. Each stays byte-reproducible because every
// schedule it sweeps is a pure function of (seed, step, worker) that both
// endpoints evaluate.
var builtins = []builtin{
	{"smoke", nil}, // SmokeSpec
	// In-process against localhost TCP: perfect-network cells agree number for number.
	{"tcp-smoke", []Network{
		{Name: "in-process"},
		{Name: "tcp-distributed", Network: core.Network{Backend: "tcp"}},
	}},
	// UDP on a perfect link (bit-equal to in-process) and at 10% loss with fill-random (§3.3).
	{"udp-smoke", []Network{
		{Name: "in-process"},
		{Name: "udp-distributed", Network: core.Network{Backend: "udp"}},
		{Name: "udp-lossy", Network: core.Network{Backend: "udp", DropRate: 0.1, Recoup: "fill-random", Protocol: "udp"}},
	}},
	// 10% model-broadcast loss under both torn-broadcast policies, skip and stale.
	{"model-loss-smoke", []Network{
		{Name: "in-process"},
		{Name: "udp-model-perfect", Network: core.Network{Backend: "udp", ModelRecoup: "stale"}},
		{Name: "udp-model-lossy-skip", Network: core.Network{Backend: "udp", ModelDropRate: 0.1, Protocol: "udp"}},
		{Name: "udp-model-lossy-stale", Network: core.Network{Backend: "udp", ModelDropRate: 0.1, ModelRecoup: "stale",
			Protocol: "udp"}},
		{Name: "udp-both-lossy-stale", Network: core.Network{Backend: "udp", DropRate: 0.1, Recoup: "fill-random",
			ModelDropRate: 0.1, ModelRecoup: "stale", Protocol: "udp"}},
	}},
	// float64 against float32 coordinates: the accuracy cost of halving the gradient bytes.
	{"wire-smoke", []Network{
		{Name: "in-process"},
		{Name: "udp-f64", Network: core.Network{Backend: "udp"}},
		{Name: "udp-f32", Network: core.Network{Backend: "udp", WireFormat: "float32"}},
		{Name: "udp-f64-lossy", Network: core.Network{Backend: "udp", DropRate: 0.1, Recoup: "fill-random", Protocol: "udp"}},
		{Name: "udp-f32-lossy", Network: core.Network{Backend: "udp", WireFormat: "float32", DropRate: 0.1,
			Recoup: "fill-random", Protocol: "udp"}},
	}},
	// Lockstep against quorum 6 of 7 with staleness τ = 2 on every backend: the straggler contrast.
	{"async-smoke", []Network{
		{Name: "lockstep-in-process"},
		{Name: "lockstep-slow", Network: core.Network{AsyncConfig: ps.AsyncConfig{Staleness: 2, SlowRate: 0.25}}},
		{Name: "async-in-process", Network: core.Network{AsyncConfig: smokeAsync}},
		{Name: "async-tcp", Network: core.Network{Backend: "tcp", AsyncConfig: smokeAsync}},
		{Name: "async-udp", Network: core.Network{Backend: "udp", AsyncConfig: smokeAsync}},
		{Name: "async-udp-lossy", Network: core.Network{Backend: "udp", AsyncConfig: smokeAsync,
			DropRate: 0.1, Recoup: "fill-random", Protocol: "udp"}},
	}},
	// Crash/rejoin on both socket backends, dragging some multi-krum rounds below n ≥ 2f+3.
	{"churn-smoke", []Network{
		{Name: "steady-in-process"},
		{Name: "churn-tcp", Network: core.Network{Backend: "tcp", Churn: &smokeChurn}},
		{Name: "churn-udp", Network: core.Network{Backend: "udp", Churn: &smokeChurn}},
		{Name: "churn-udp-lossy", Network: core.Network{Backend: "udp", Churn: &smokeChurn,
			DropRate: 0.1, Recoup: "fill-random", Protocol: "udp"}},
	}},
}

type builtin struct {
	name     string
	networks []Network
}

var (
	smokeAsync = ps.AsyncConfig{Quorum: 6, Staleness: 2, SlowRate: 0.25}
	smokeChurn = ps.ChurnConfig{Rate: 0.08, DownSteps: 2, MaxRejoins: 2}
)

// BuiltinNames lists the built-in campaigns.
func BuiltinNames() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	return names
}

// Builtin returns the named built-in campaign with defaults applied. Every
// call builds a fresh spec, so the caller may edit it.
func Builtin(name string) (Spec, error) {
	i := slices.IndexFunc(builtins, func(b builtin) bool { return b.name == name })
	switch {
	case i < 0:
		return Spec{}, fmt.Errorf("scenario: unknown built-in campaign %q (want %s)", name, strings.Join(BuiltinNames(), "|"))
	case builtins[i].networks == nil:
		return SmokeSpec(), nil
	}
	s := Spec{
		Name:       name,
		Experiment: "features-mlp",
		GARs:       []string{"median", "multi-krum"},
		Attacks:    []string{AttackNone, "reversed", "non-finite"},
		Clusters:   []Cluster{{Workers: 7, F: 1}},
		Networks:   slices.Clone(builtins[i].networks),
		Seeds:      []int64{1},
		Steps:      30,
		Batch:      16,
		LR:         5e-3,
		EvalEvery:  10,
		Threshold:  0.25,
	}
	for i, n := range s.Networks {
		if n.Churn != nil {
			churn := *n.Churn
			s.Networks[i].Churn = &churn
		}
	}
	s.ApplyDefaults()
	return s, nil
}
