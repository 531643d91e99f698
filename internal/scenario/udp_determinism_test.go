package scenario

import (
	"testing"
)

// TestUDPCampaignJSONDeterministic extends the engine's acceptance gate to
// the lossy-datagram backend: a campaign whose cells run over real UDP
// sockets — including cells at 10% packet loss — must still produce
// byte-identical JSON across repeated executions and across serial vs
// parallel pools. Lossy rounds are reproducible because the drop schedule
// and the recoup values are pure functions of (seed, step, worker), and the
// perfect-link udp cells must equal their in-process twins exactly.
func TestUDPCampaignJSONDeterministic(t *testing.T) {
	spec := UDPSmokeSpec()
	spec.Steps = 8
	spec.EvalEvery = 4

	hasLossy := false
	for _, n := range spec.Networks {
		if n.Backend == "udp" && n.DropRate > 0 {
			hasLossy = true
		}
	}
	if !hasLossy {
		t.Fatal("udp smoke spec has no lossy udp-backend network")
	}

	first := deterministicCampaign(t, spec)

	// The perfect-network parity guarantee at campaign level: for every
	// (gar, attack, seed) cell the dropRate-0 udp backend's numbers must
	// equal the in-process backend's — same seeds, same gradients, same
	// trajectory. Lossy cells are asserted reproducible above, not equal to
	// the perfect-link cells (loss changes the trajectory by design).
	byCell := map[string]Result{}
	for _, res := range first.Results {
		if res.Run.Network.Name == "in-process" {
			key := res.Run.GAR + "/" + res.Run.Attack
			byCell[key] = res
		}
	}
	compared := 0
	for _, res := range first.Results {
		if res.Run.Network.Backend != "udp" || res.Run.Network.DropRate != 0 {
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
		if res.StepsToThreshold != ref.StepsToThreshold || res.Diverged != ref.Diverged ||
			res.SkippedRounds != ref.SkippedRounds {
			t.Fatalf("%s: readouts diverged from in-process twin", res.Run.ID)
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no perfect-link udp cells compared")
	}

	// Lossy cells must actually differ from their perfect-link twins
	// somewhere — otherwise the drop schedule is silently not applied.
	lossDiffers := false
	perfectUDP := map[string]Result{}
	for _, res := range first.Results {
		if res.Run.Network.Backend == "udp" && res.Run.Network.DropRate == 0 {
			perfectUDP[res.Run.GAR+"/"+res.Run.Attack] = res
		}
	}
	for _, res := range first.Results {
		if res.Run.Network.Backend != "udp" || res.Run.Network.DropRate == 0 {
			continue
		}
		ref, ok := perfectUDP[res.Run.GAR+"/"+res.Run.Attack]
		if !ok {
			continue
		}
		if res.FinalAccuracy != ref.FinalAccuracy || res.FinalLoss != ref.FinalLoss {
			lossDiffers = true
		}
	}
	if !lossDiffers {
		t.Fatal("every lossy cell equals its perfect-link twin; drop injection is not reaching the wire")
	}
}

// TestSmokeLossyCellsMatchUDPBackend pins the one loss model at the campaign
// level: the smoke campaign's lossy-udp cells (every in-process worker on the
// datagram link) re-run on the udp backend — same loss axes, no udpLinks —
// report the same accuracy, loss, steps to threshold and counters.
func TestSmokeLossyCellsMatchUDPBackend(t *testing.T) {
	inproc := SmokeSpec()
	inproc.Networks = inproc.Networks[1:]
	if n := inproc.Networks[0]; n.Name != "lossy-udp" || n.UDPLinks != -1 || n.DropRate == 0 {
		t.Fatalf("the smoke campaign's second network is %+v, not the lossy in-process one", n)
	}
	udp := inproc
	udp.Networks = []Network{inproc.Networks[0]}
	udp.Networks[0].Backend, udp.Networks[0].UDPLinks = "udp", 0
	a, err := Execute(inproc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(udp)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != 16 || len(b.Results) != len(a.Results) {
		t.Fatalf("%d in-process and %d udp cells, want 16 each", len(a.Results), len(b.Results))
	}
	for i, x := range a.Results {
		y := b.Results[i]
		if x.Error != "" || y.Error != "" {
			t.Fatalf("%s: errors %q / %q", x.Run.ID, x.Error, y.Error)
		}
		if x.FinalAccuracy != y.FinalAccuracy || x.FinalLoss != y.FinalLoss || x.StepsToThreshold != y.StepsToThreshold ||
			x.Totals != y.Totals || x.Diverged != y.Diverged {
			t.Errorf("%s: in-process %+v, udp backend %+v", x.Run.ID, x, y)
		}
	}
}

// TestNetworkValidationUDP pins the new validation surface: the udp backend
// composes with dropRate/recoup but not with the in-process link knob, and
// the tcp backend rejects dropRate (reliable transport — loss there would
// silently only touch the simulated clock).
func TestNetworkValidationUDP(t *testing.T) {
	base := func(n Network) *Spec {
		s := Spec{Networks: []Network{n}}
		s.ApplyDefaults()
		return &s
	}
	if err := base(Network{Name: "u", Backend: "udp", DropRate: 0.2, Recoup: "fill-nan"}).Validate(); err != nil {
		t.Fatalf("valid udp network rejected: %v", err)
	}
	if err := base(Network{Name: "u", Backend: "udp", UDPLinks: 2}).Validate(); err == nil {
		t.Fatal("udp backend with udpLinks accepted")
	}
	if err := base(Network{Name: "t", Backend: "tcp", DropRate: 0.1}).Validate(); err == nil {
		t.Fatal("tcp backend with dropRate accepted")
	}
	if err := base(Network{Name: "x", Backend: "grpc"}).Validate(); err == nil {
		t.Fatal("unknown backend accepted")
	}
}
