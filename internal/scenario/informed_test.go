package scenario

import (
	"errors"
	"testing"

	"aggregathor/internal/core"
	"aggregathor/internal/ps"
)

// TestInformedAttackSlowNetworkRejected pins the spec-level informed ×
// slow-schedule guard. The ps and cluster constructors already reject the
// combination (an informed attack recomputes honest gradients from the
// broadcast model, which a slow schedule invalidates), but until the
// guard-parity sweep this spec slid through Validate and every cell of the
// campaign failed into its Result.Error JSON row instead of failing loudly
// before any cell ran.
func TestInformedAttackSlowNetworkRejected(t *testing.T) {
	s := Spec{
		Networks: []Network{{Name: "a", Network: core.Network{AsyncConfig: ps.AsyncConfig{Quorum: 6, Staleness: 2, SlowRate: 0.25}}}},
		Attacks:  []string{AttackNone, "omniscient"},
	}
	s.ApplyDefaults()
	err := s.Validate()
	if !errors.Is(err, ps.ErrInformedSlow) {
		t.Fatalf("informed attack swept against a slow-schedule network: got %v, want ErrInformedSlow", err)
	}
	blind := Spec{
		Networks: []Network{{Name: "a", Network: core.Network{AsyncConfig: ps.AsyncConfig{Quorum: 6, Staleness: 2, SlowRate: 0.25}}}},
		Attacks:  []string{AttackNone, "reversed"},
	}
	blind.ApplyDefaults()
	if err := blind.Validate(); err != nil {
		t.Fatalf("blind attack swept against a slow-schedule network rejected: %v", err)
	}
}

// TestInformedAttackModelLossNetworkRejected pins the spec-level informed ×
// lossy-model-broadcast guard — the third leg of the informed-oracle family
// (slow, churn, model-loss), previously enforced only by the UDP cluster
// constructor.
func TestInformedAttackModelLossNetworkRejected(t *testing.T) {
	s := Spec{
		Networks: []Network{{Name: "a", Network: core.Network{Backend: "udp", ModelDropRate: 0.1}}},
		Attacks:  []string{AttackNone, "omniscient"},
	}
	s.ApplyDefaults()
	err := s.Validate()
	if !errors.Is(err, ps.ErrInformedModelLoss) {
		t.Fatalf("informed attack swept against a lossy-model network: got %v, want ErrInformedModelLoss", err)
	}
	blind := Spec{
		Networks: []Network{{Name: "a", Network: core.Network{Backend: "udp", ModelDropRate: 0.1}}},
		Attacks:  []string{AttackNone, "reversed"},
	}
	blind.ApplyDefaults()
	if err := blind.Validate(); err != nil {
		t.Fatalf("blind attack swept against a lossy-model network rejected: %v", err)
	}
}
