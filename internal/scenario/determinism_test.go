package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// deterministicCampaign executes spec twice and once more on a serial pool,
// and fails unless the three campaigns marshal to the same bytes: neither
// result values, result order, nor the echoed spec may depend on the run or
// on the pool size (parallelism is an execution knob, not an axis). It
// returns the first campaign.
func deterministicCampaign(t *testing.T, spec Spec) *Campaign {
	t.Helper()
	var first *Campaign
	var want []byte
	for run := range 3 {
		if run == 2 {
			spec.Parallelism = 1
		}
		c, err := Execute(spec)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := c.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first, want = c, raw
		} else if !bytes.Equal(raw, want) {
			t.Fatalf("%s: execution %d (parallelism %d) produced different JSON than the first", spec.Name, run+1, spec.Parallelism)
		}
	}
	return first
}

// TestCampaignJSONDeterministic is the acceptance gate for the engine: a
// campaign spanning at least 4 GARs × 3 attacks × 2 network conditions,
// executed twice with the same spec and seeds, must produce byte-identical
// JSON. The grid is the built-in smoke campaign with a shortened training
// budget (the grid shape, not the step count, is what the guarantee covers).
func TestCampaignJSONDeterministic(t *testing.T) {
	spec := SmokeSpec()
	spec.Steps = 8
	spec.EvalEvery = 4

	if len(spec.GARs) < 4 {
		t.Fatalf("smoke spec has %d GARs, want >= 4", len(spec.GARs))
	}
	attacks := 0
	for _, a := range spec.Attacks {
		if a != AttackNone {
			attacks++
		}
	}
	if attacks < 3 {
		t.Fatalf("smoke spec has %d attacks, want >= 3", attacks)
	}
	if len(spec.Networks) < 2 {
		t.Fatalf("smoke spec has %d network conditions, want >= 2", len(spec.Networks))
	}

	first := deterministicCampaign(t, spec)

	// The JSON must round-trip: campaign files are the interchange format
	// later changes diff against.
	raw, err := first.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Campaign
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("campaign JSON does not round-trip: %v", err)
	}
	if len(decoded.Results) != len(first.Results) {
		t.Fatalf("round-trip lost results: %d != %d", len(decoded.Results), len(first.Results))
	}
	expanded := spec.Expand()
	if len(first.Results) != len(expanded) {
		t.Fatalf("campaign has %d results for %d expanded runs", len(first.Results), len(expanded))
	}
	for i, res := range first.Results {
		if res.Run.ID != expanded[i].ID {
			t.Fatalf("result %d is %q, expansion order says %q", i, res.Run.ID, expanded[i].ID)
		}
	}
}
