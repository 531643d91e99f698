package scenario

import (
	"testing"

	"aggregathor/internal/ps"
)

// TestAsyncCampaignJSONDeterministic is the campaign acceptance gate for
// asynchronous rounds: the async-smoke spec — lockstep baseline, slow-gated
// lockstep, quorum cells on all three backends and a lossy-uplink quorum
// cell — must produce byte-identical JSON across repeated executions and
// across serial vs parallel pools, and the async readout must behave: only
// async-enabled cells report rounds/sec, lockstep cells surface zero
// staleness, and the slow schedule actually engages somewhere.
func TestAsyncCampaignJSONDeterministic(t *testing.T) {
	spec := mustBuiltin(t, "async-smoke")
	spec.Steps = 8
	spec.EvalEvery = 4

	first := deterministicCampaign(t, spec)

	// Readout semantics. The plain lockstep cells must surface no async
	// numbers at all; every async-enabled cell must report a positive
	// rounds/sec; and the slow schedule must engage somewhere (admitted-stale
	// and dropped-too-stale both nonzero across the campaign, with the
	// scheduled sit-outs surfacing as skipped rounds on the slow-gated
	// lockstep cell).
	staleTotal, droppedTotal, slowGatedSkips := 0, 0, 0
	for _, res := range first.Results {
		if res.Error != "" {
			t.Fatalf("%s: cell failed: %s", res.Run.ID, res.Error)
		}
		asyncCell := res.Run.Network.AsyncConfig.Enabled()
		if !asyncCell {
			if res.AdmittedStale != 0 || res.DroppedTooStale != 0 || res.RoundsPerSec != 0 {
				t.Fatalf("%s: lockstep cell surfaced async readouts: stale=%d dropped=%d rounds/s=%v",
					res.Run.ID, res.AdmittedStale, res.DroppedTooStale, res.RoundsPerSec)
			}
			continue
		}
		if res.RoundsPerSec <= 0 {
			t.Fatalf("%s: async cell reports rounds/sec %v, want > 0", res.Run.ID, res.RoundsPerSec)
		}
		staleTotal += res.AdmittedStale
		droppedTotal += res.DroppedTooStale
		if res.Run.Network.Name == "lockstep-slow" {
			slowGatedSkips += res.SkippedRounds
		}
	}
	if staleTotal == 0 || droppedTotal == 0 {
		t.Fatalf("campaign admitted %d stale and dropped %d slots; the slow schedule is not engaging", staleTotal, droppedTotal)
	}
	if slowGatedSkips == 0 {
		t.Fatal("the slow-gated lockstep cells skipped no rounds; scheduled sit-outs are not gating them")
	}

	// The same schedule on the same seed must count identically on every
	// backend: the three quorum-6 loss-free cells of one (gar, attack) pair
	// report the same admitted-stale/dropped-too-stale/skipped totals.
	type counts struct{ stale, dropped, skipped int }
	byBackend := map[string]map[string]counts{}
	for _, res := range first.Results {
		n := res.Run.Network.Name
		if n != "async-in-process" && n != "async-tcp" && n != "async-udp" {
			continue
		}
		key := res.Run.GAR + "/" + res.Run.Attack
		if byBackend[key] == nil {
			byBackend[key] = map[string]counts{}
		}
		byBackend[key][n] = counts{res.AdmittedStale, res.DroppedTooStale, res.SkippedRounds}
	}
	for key, cells := range byBackend {
		ref, ok := cells["async-in-process"]
		if !ok || len(cells) != 3 {
			t.Fatalf("%s: expected all three loss-free async backends, got %v", key, cells)
		}
		for name, got := range cells {
			if got != ref {
				t.Fatalf("%s: %s counted %+v, in-process counted %+v", key, name, got, ref)
			}
		}
	}
}

// TestNetworkValidationAsync pins the async validation surface: quorum and
// staleness are non-negative, slow-worker rates live in [0, 1) and need a
// staleness window, and the async mode refuses to compose with lossy model
// broadcasts.
func TestNetworkValidationAsync(t *testing.T) {
	base := func(n Network) *Spec {
		// Blind attacks only: sweeping the informed family against a slow
		// schedule is itself a validation error (informed_test.go).
		s := Spec{Networks: []Network{n}, Attacks: []string{AttackNone, "reversed"}}
		s.ApplyDefaults()
		return &s
	}
	if err := base(Network{Name: "a", AsyncConfig: ps.AsyncConfig{Quorum: 6, Staleness: 2, SlowRate: 0.25}}).Validate(); err != nil {
		t.Fatalf("valid async network rejected: %v", err)
	}
	if err := base(Network{Name: "a", Backend: "udp", AsyncConfig: ps.AsyncConfig{Quorum: 6, Staleness: 2, SlowRate: 0.25}, DropRate: 0.1, Recoup: "fill-random"}).Validate(); err != nil {
		t.Fatalf("valid lossy-uplink async network rejected: %v", err)
	}
	if err := base(Network{Name: "a", AsyncConfig: ps.AsyncConfig{Quorum: -1}}).Validate(); err == nil {
		t.Fatal("negative quorum accepted")
	}
	if err := base(Network{Name: "a", AsyncConfig: ps.AsyncConfig{Staleness: -1}}).Validate(); err == nil {
		t.Fatal("negative staleness accepted")
	}
	if err := base(Network{Name: "a", AsyncConfig: ps.AsyncConfig{Staleness: 2, SlowRate: 1.0}}).Validate(); err == nil {
		t.Fatal("slowWorkers 1.0 accepted")
	}
	if err := base(Network{Name: "a", AsyncConfig: ps.AsyncConfig{Staleness: 2, SlowRate: -0.1}}).Validate(); err == nil {
		t.Fatal("negative slowWorkers accepted")
	}
	if err := base(Network{Name: "a", AsyncConfig: ps.AsyncConfig{Quorum: 6, SlowRate: 0.25}}).Validate(); err == nil {
		t.Fatal("slowWorkers without a staleness window accepted")
	}
	if err := base(Network{Name: "a", Backend: "udp", AsyncConfig: ps.AsyncConfig{Quorum: 6}, ModelDropRate: 0.1}).Validate(); err == nil {
		t.Fatal("async composed with lossy model broadcasts accepted")
	}
	if err := base(Network{Name: "a", Backend: "udp", AsyncConfig: ps.AsyncConfig{Quorum: 6}, ModelRecoup: "stale"}).Validate(); err == nil {
		t.Fatal("async composed with the stale model recoup accepted")
	}
}
