package scenario

import (
	"testing"
)

// TestModelLossCampaignJSONDeterministic extends the campaign acceptance
// gate to lossy model broadcasts (footnote 12): cells with 10% scheduled
// downlink loss — under both the skip and the stale recoup policy — must
// produce byte-identical JSON across repeated executions and across serial
// vs parallel pools, the modelDropRate-0 udp cells must equal their
// in-process twins exactly, and the staleness readout must behave: stale
// cells report stale gradients, skip and perfect cells report none.
func TestModelLossCampaignJSONDeterministic(t *testing.T) {
	spec := mustBuiltin(t, "model-loss-smoke")
	spec.Steps = 8
	spec.EvalEvery = 4

	first := deterministicCampaign(t, spec)

	// Perfect-model-channel parity: the modelDropRate-0 udp cells (even
	// with the stale policy configured) must equal their in-process twins.
	byCell := map[string]Result{}
	for _, res := range first.Results {
		if res.Run.Network.Name == "in-process" {
			byCell[res.Run.GAR+"/"+res.Run.Attack] = res
		}
	}
	compared := 0
	for _, res := range first.Results {
		if res.Run.Network.Backend != "udp" || res.Run.Network.ModelDropRate != 0 || res.Run.Network.DropRate != 0 {
			continue
		}
		ref, ok := byCell[res.Run.GAR+"/"+res.Run.Attack]
		if !ok {
			t.Fatalf("no in-process twin for %s", res.Run.ID)
		}
		if res.Error != ref.Error {
			t.Fatalf("%s: error %q vs in-process %q", res.Run.ID, res.Error, ref.Error)
		}
		if res.FinalAccuracy != ref.FinalAccuracy || res.FinalLoss != ref.FinalLoss {
			t.Fatalf("%s: accuracy/loss (%v, %v) diverged from in-process twin (%v, %v)",
				res.Run.ID, res.FinalAccuracy, res.FinalLoss, ref.FinalAccuracy, ref.FinalLoss)
		}
		if res.StaleGradients != 0 {
			t.Fatalf("%s: %d stale gradients on a loss-free model channel", res.Run.ID, res.StaleGradients)
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no perfect-model-channel udp cells compared")
	}

	// The staleness axis must actually engage: at least one stale-policy
	// lossy cell reports stale gradients; skip cells never do; and lossy
	// model broadcasts must change some trajectory vs the perfect channel.
	staleSeen, lossDiffers := false, false
	perfect := map[string]Result{}
	for _, res := range first.Results {
		if res.Run.Network.Name == "udp-model-perfect" {
			perfect[res.Run.GAR+"/"+res.Run.Attack] = res
		}
	}
	for _, res := range first.Results {
		if res.Run.Network.ModelDropRate == 0 {
			continue
		}
		switch res.Run.Network.ModelRecoup {
		case "stale":
			if res.StaleGradients > 0 {
				staleSeen = true
			}
		default: // skip
			if res.StaleGradients != 0 {
				t.Fatalf("%s: skip policy reported %d stale gradients", res.Run.ID, res.StaleGradients)
			}
		}
		if ref, ok := perfect[res.Run.GAR+"/"+res.Run.Attack]; ok {
			if res.FinalAccuracy != ref.FinalAccuracy || res.FinalLoss != ref.FinalLoss {
				lossDiffers = true
			}
		}
	}
	if !staleSeen {
		t.Fatal("no stale-policy cell reported stale gradients; the staleness axis is not engaging")
	}
	if !lossDiffers {
		t.Fatal("every lossy-model cell equals its perfect-channel twin; downlink drops are not reaching the wire")
	}
}

// TestNetworkValidationModelLoss pins the model-loss validation surface:
// the knobs compose only with the udp backend, rates stay in [0, 1), and
// recoup names parse strictly.
func TestNetworkValidationModelLoss(t *testing.T) {
	base := func(n Network) *Spec {
		// Blind attacks only: sweeping the informed family against a lossy
		// model channel is itself a validation error (informed_test.go).
		s := Spec{Networks: []Network{n}, Attacks: []string{AttackNone, "reversed"}}
		s.ApplyDefaults()
		return &s
	}
	if err := base(Network{Name: "m", Backend: "udp", ModelDropRate: 0.2, ModelRecoup: "stale"}).Validate(); err != nil {
		t.Fatalf("valid lossy-model network rejected: %v", err)
	}
	if err := base(Network{Name: "m", Backend: "udp", ModelDropRate: 0.2}).Validate(); err != nil {
		t.Fatalf("lossy-model network with default (skip) recoup rejected: %v", err)
	}
	if err := base(Network{Name: "m", Backend: "tcp", ModelDropRate: 0.2}).Validate(); err == nil {
		t.Fatal("tcp backend with modelDropRate accepted")
	}
	if err := base(Network{Name: "m", ModelDropRate: 0.2}).Validate(); err == nil {
		t.Fatal("in-process network with modelDropRate accepted")
	}
	if err := base(Network{Name: "m", ModelRecoup: "stale"}).Validate(); err == nil {
		t.Fatal("in-process network with modelRecoup accepted")
	}
	if err := base(Network{Name: "m", Backend: "udp", ModelDropRate: 1.0}).Validate(); err == nil {
		t.Fatal("modelDropRate 1.0 accepted")
	}
	if err := base(Network{Name: "m", Backend: "udp", ModelDropRate: -0.1}).Validate(); err == nil {
		t.Fatal("negative modelDropRate accepted")
	}
	if err := base(Network{Name: "m", Backend: "udp", ModelRecoup: "retransmit"}).Validate(); err == nil {
		t.Fatal("unknown modelRecoup policy accepted")
	}
}
