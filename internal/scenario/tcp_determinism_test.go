package scenario

import (
	"bytes"
	"testing"
)

// TestTCPCampaignJSONDeterministic extends the engine's acceptance gate to
// the socket-distributed backend: a campaign whose cells run over real
// localhost TCP connections must still produce byte-identical JSON across
// repeated executions and across serial vs parallel pools. Socket rounds are
// reproducible because gradients are slotted by worker id, worker seeds
// derive from the run seed, and the float64 wire codec is lossless.
func TestTCPCampaignJSONDeterministic(t *testing.T) {
	spec := mustBuiltin(t, "tcp-smoke")
	spec.Steps = 8
	spec.EvalEvery = 4

	hasTCP := false
	for _, n := range spec.Networks {
		if n.Backend == "tcp" {
			hasTCP = true
		}
	}
	if !hasTCP {
		t.Fatal("distributed smoke spec has no tcp-backend network")
	}

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
		t.Fatal("two executions of the tcp-backend spec produced different JSON")
	}

	spec.Parallelism = 1
	serial, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	rawSerial, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawFirst, rawSerial) {
		t.Fatal("serial execution of the tcp-backend spec differs from parallel execution")
	}

	// The perfect-network parity guarantee at campaign level: for every
	// (gar, attack, seed) cell the tcp backend's numbers must equal the
	// in-process backend's — same seeds, same gradients, same trajectory.
	byCell := map[string]Result{}
	for _, res := range first.Results {
		if res.Run.Network.Name == "in-process" {
			key := res.Run.GAR + "/" + res.Run.Attack
			byCell[key] = res
		}
	}
	compared := 0
	for _, res := range first.Results {
		if res.Run.Network.Backend != "tcp" {
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
		t.Fatal("no tcp cells compared")
	}
}
