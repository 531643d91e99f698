package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// TestWireCampaignJSONDeterministic extends the byte-reproducibility gate to
// the wire-format axis: a campaign sweeping float64 and float32 udp cells —
// perfect and lossy — must produce byte-identical JSON across executions,
// the float32 knob must actually reach the wire (a float32 cell differs
// from its float64 twin in the loss readout), and the summary must carry
// the wire-format delta section.
func TestWireCampaignJSONDeterministic(t *testing.T) {
	spec := WireSmokeSpec()
	spec.Steps = 8
	spec.EvalEvery = 4

	first, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	rawFirst, err := first.JSON()
	if err != nil {
		t.Fatal(err)
	}
	rawSecond, err := second.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawFirst, rawSecond) {
		t.Fatal("two executions of the wire-format spec produced different JSON")
	}

	// The float32 knob must be live: a perfect-link float32 cell and its
	// float64 twin share the seed and the drop schedule, so any difference
	// is the coordinate rounding — and there must be one somewhere, or the
	// axis is silently ignored.
	byCell := map[string]Result{}
	for _, res := range first.Results {
		if res.Run.Network.Name == "udp-f64" {
			byCell[res.Run.GAR+"/"+res.Run.Attack] = res
		}
	}
	compared, differs := 0, false
	for _, res := range first.Results {
		if res.Run.Network.Name != "udp-f32" {
			continue
		}
		ref, ok := byCell[res.Run.GAR+"/"+res.Run.Attack]
		if !ok {
			t.Fatalf("no float64 twin for %s", res.Run.ID)
		}
		if res.Error != "" || ref.Error != "" {
			t.Fatalf("%s: unexpected error (%q / %q)", res.Run.ID, res.Error, ref.Error)
		}
		if res.FinalLoss != ref.FinalLoss || res.FinalAccuracy != ref.FinalAccuracy {
			differs = true
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no float32 cells compared")
	}
	if !differs {
		t.Fatal("every float32 cell equals its float64 twin bit-for-bit; the wire-format axis is not reaching the wire")
	}

	summary := first.Summary()
	if !strings.Contains(summary, "== wire formats ==") {
		t.Fatalf("summary missing the wire-format delta section:\n%s", summary)
	}
	if !strings.Contains(summary, "udp-f32") || !strings.Contains(summary, "float32") {
		t.Fatalf("wire-format section missing the float32 rows:\n%s", summary)
	}
}

// TestNetworkValidationWireFormat pins the wire-format validation surface:
// float32 needs a lossy wire (udp backend or in-memory udpLinks), float64
// and the empty default are accepted everywhere, unknown names fail.
func TestNetworkValidationWireFormat(t *testing.T) {
	base := func(n Network) *Spec {
		s := Spec{Networks: []Network{n}}
		s.ApplyDefaults()
		return &s
	}
	if err := base(Network{Name: "u", Backend: "udp", WireFormat: "float32"}).Validate(); err != nil {
		t.Fatalf("float32 on the udp backend rejected: %v", err)
	}
	if err := base(Network{Name: "p", UDPLinks: -1, WireFormat: "float32"}).Validate(); err != nil {
		t.Fatalf("float32 on the in-process datagram link rejected: %v", err)
	}
	if err := base(Network{Name: "i", WireFormat: "float64"}).Validate(); err != nil {
		t.Fatalf("explicit float64 default rejected: %v", err)
	}
	if err := base(Network{Name: "i", WireFormat: "float32"}).Validate(); err == nil {
		t.Fatal("float32 without a lossy wire accepted")
	}
	if err := base(Network{Name: "t", Backend: "tcp", WireFormat: "float32"}).Validate(); err == nil {
		t.Fatal("float32 on the tcp backend accepted")
	}
	if err := base(Network{Name: "x", Backend: "udp", WireFormat: "float16"}).Validate(); err == nil {
		t.Fatal("unknown wire format accepted")
	}
}
