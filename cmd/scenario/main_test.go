package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"aggregathor/internal/scenario"
)

func TestResolveSpecDefaultsToSmoke(t *testing.T) {
	s, err := resolveSpec("", "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "smoke" {
		t.Fatalf("default spec is %q, want the built-in smoke campaign", s.Name)
	}
}

func TestResolveSpecBuiltins(t *testing.T) {
	s, err := resolveSpec("", "tcp-smoke")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "tcp-smoke" {
		t.Fatalf("builtin tcp-smoke resolved to %q", s.Name)
	}
	tcp := 0
	for _, n := range s.Networks {
		if n.Backend == "tcp" {
			tcp++
		}
	}
	if tcp == 0 {
		t.Fatal("tcp-smoke has no socket-distributed network cell")
	}
	s, err = resolveSpec("", "udp-smoke")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "udp-smoke" {
		t.Fatalf("builtin udp-smoke resolved to %q", s.Name)
	}
	udp, lossy := 0, 0
	for _, n := range s.Networks {
		if n.Backend == "udp" {
			udp++
			if n.DropRate > 0 {
				lossy++
			}
		}
	}
	if udp == 0 || lossy == 0 {
		t.Fatalf("udp-smoke has %d udp cells (%d lossy), want both > 0", udp, lossy)
	}
	s, err = resolveSpec("", "model-loss-smoke")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "model-loss-smoke" {
		t.Fatalf("builtin model-loss-smoke resolved to %q", s.Name)
	}
	modelLossy, stale := 0, 0
	for _, n := range s.Networks {
		if n.ModelDropRate > 0 {
			modelLossy++
			if n.ModelRecoup == "stale" {
				stale++
			}
		}
	}
	if modelLossy == 0 || stale == 0 {
		t.Fatalf("model-loss-smoke has %d lossy-model cells (%d stale), want both > 0", modelLossy, stale)
	}
	s, err = resolveSpec("", "async-smoke")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "async-smoke" {
		t.Fatalf("builtin async-smoke resolved to %q", s.Name)
	}
	quorumCells, slowCells, lossyAsync := 0, 0, 0
	for _, n := range s.Networks {
		if n.Quorum > 0 {
			quorumCells++
			if n.DropRate > 0 {
				lossyAsync++
			}
		}
		if n.SlowRate > 0 {
			slowCells++
		}
	}
	if quorumCells == 0 || slowCells == 0 || lossyAsync == 0 {
		t.Fatalf("async-smoke has %d quorum cells, %d slow-scheduled cells, %d lossy async cells; want all > 0",
			quorumCells, slowCells, lossyAsync)
	}
	if _, err := resolveSpec("", "no-such-campaign"); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

// TestUDPSpecFileRunsDeterministically is the CLI-level acceptance test for
// the lossy-datagram campaign path: a spec file with a backend:"udp" network
// at 10% drop loads through the same entry point main uses and executes to
// byte-identical JSON across two consecutive invocations.
func TestUDPSpecFileRunsDeterministically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "udp.json")
	raw := []byte(`{"name":"udp-file","gars":["multi-krum"],"attacks":["none","reversed"],
		"clusters":[{"workers":5,"f":1}],
		"networks":[{"name":"udp-lossy","backend":"udp","dropRate":0.1,"recoup":"fill-random","protocol":"udp"}],
		"steps":4,"batch":8,"evalEvery":2}`)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := resolveSpec(path, "")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		c, err := scenario.Execute(*spec)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("two consecutive invocations of the udp spec produced different JSON")
	}
}

// TestTCPSpecFileRunsDeterministically is the CLI-level acceptance test for
// the distributed campaign path: a spec file with a backend:"tcp" network
// loads through the same entry point main uses and executes to byte-identical
// JSON across two consecutive invocations.
func TestTCPSpecFileRunsDeterministically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tcp.json")
	raw := []byte(`{"name":"tcp-file","gars":["multi-krum"],"attacks":["none","reversed"],
		"clusters":[{"workers":5,"f":1}],
		"networks":[{"name":"tcp-distributed","backend":"tcp"}],
		"steps":4,"batch":8,"evalEvery":2}`)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := resolveSpec(path, "")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		c, err := scenario.Execute(*spec)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("two consecutive invocations of the tcp spec produced different JSON")
	}
}

func TestResolveSpecFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	raw := []byte(`{"name":"file-spec","gars":["average"],"attacks":["none"],
		"clusters":[{"workers":3,"f":0}],"networks":[{"name":"in-process"}],
		"steps":2,"batch":4}`)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := resolveSpec(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "file-spec" || len(s.GARs) != 1 {
		t.Fatalf("parsed %+v", s)
	}
	if _, err := resolveSpec(filepath.Join(t.TempDir(), "missing.json"), ""); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

func TestSpecJSONRoundTrips(t *testing.T) {
	s := scenario.SmokeSpec()
	raw, err := specJSON(&s)
	if err != nil {
		t.Fatal(err)
	}
	var back scenario.Spec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name || len(back.GARs) != len(s.GARs) || len(back.Networks) != len(s.Networks) {
		t.Fatalf("round-trip changed the spec: %+v", back)
	}
}
