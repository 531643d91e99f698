package main

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"

	"aggregathor/internal/core"
)

func TestParseAttacks(t *testing.T) {
	got, err := parseAttacks("3:omniscient, 7:random")
	if err != nil {
		t.Fatal(err)
	}
	if got[3] != "omniscient" || got[7] != "random" {
		t.Fatalf("got %v", got)
	}
	if got, err := parseAttacks(""); err != nil || got != nil {
		t.Fatal("empty spec must yield nil, nil")
	}
	for _, bad := range []string{"3", "x:random", "3:", "3: ,4:random"} {
		if _, err := parseAttacks(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func TestParseIDs(t *testing.T) {
	got, err := parseIDs("1, 2,5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Fatalf("got %v", got)
	}
	if got, err := parseIDs(""); err != nil || got != nil {
		t.Fatal("empty spec must yield nil, nil")
	}
	if _, err := parseIDs("1,x"); err == nil {
		t.Fatal("bad id accepted")
	}
}

// TestFlagsMapOntoConfig parses one command line per flag and requires the
// whole core.Config to be the defaults with exactly that flag's field
// changed, so a flag bound to the wrong field, or a wrong default, fails
// here. Every flag the runner defines needs a row.
func TestFlagsMapOntoConfig(t *testing.T) {
	defaults := core.Config{
		Experiment:     "features-mlp",
		Network:        core.Network{Backend: core.BackendInProcess},
		Aggregator:     "multi-krum",
		Workers:        19,
		F:              4,
		Optimizer:      "rmsprop",
		LR:             1e-3,
		Batch:          100,
		Steps:          200,
		EvalEvery:      20,
		Seed:           1,
		ServerReplicas: 1,
	}
	rows := []struct {
		args []string
		set  func(*core.Config)
	}{
		{nil, func(*core.Config) {}},
		{[]string{"-experiment", "cifar-cnn"}, func(c *core.Config) { c.Experiment = "cifar-cnn" }},
		{[]string{"-backend", "udp"}, func(c *core.Config) { c.Network.Backend = "udp" }},
		{[]string{"-aggregator", "bulyan"}, func(c *core.Config) { c.Aggregator = "bulyan" }},
		{[]string{"-nb-workers", "7"}, func(c *core.Config) { c.Workers = 7 }},
		{[]string{"-f", "2"}, func(c *core.Config) { c.F = 2 }},
		{[]string{"-optimizer", "adam"}, func(c *core.Config) { c.Optimizer = "adam" }},
		{[]string{"-learning-rate", "0.25"}, func(c *core.Config) { c.LR = 0.25 }},
		{[]string{"-batch-size", "32"}, func(c *core.Config) { c.Batch = 32 }},
		{[]string{"-max-step", "30"}, func(c *core.Config) { c.Steps = 30 }},
		{[]string{"-evaluation-delta", "5"}, func(c *core.Config) { c.EvalEvery = 5 }},
		{[]string{"-l1-regularize", "0.5"}, func(c *core.Config) { c.L1 = 0.5 }},
		{[]string{"-l2-regularize", "0.75"}, func(c *core.Config) { c.L2 = 0.75 }},
		{[]string{"-attack", "2:reversed,9:random"}, func(c *core.Config) { c.Attacks = map[int]string{2: "reversed", 9: "random"} }},
		{[]string{"-corrupt-data", "3,4"}, func(c *core.Config) { c.CorruptData = []int{3, 4} }},
		{[]string{"-vanilla"}, func(c *core.Config) { c.Vanilla = true }},
		{[]string{"-hijack", "5"}, func(c *core.Config) { c.HijackWorkers = []int{5} }},
		{[]string{"-udp-links", "6"}, func(c *core.Config) { c.Network.UDPLinks = 6 }},
		{[]string{"-drop-rate", "0.1"}, func(c *core.Config) { c.Network.DropRate = 0.1 }},
		{[]string{"-recoup", "drop-gradient"}, func(c *core.Config) { c.Network.Recoup = "drop-gradient" }},
		{[]string{"-recoup", "fill-nan"}, func(c *core.Config) { c.Network.Recoup = "fill-nan" }},
		{[]string{"-udp-clock"}, func(c *core.Config) { c.Network.Protocol = "udp" }},
		{[]string{"-udp-clock=false"}, func(*core.Config) {}},
		{[]string{"-seed", "42"}, func(c *core.Config) { c.Seed = 42 }},
		{[]string{"-measure-agg"}, func(c *core.Config) { c.MeasureAgg = true }},
		{[]string{"-server-replicas", "4"}, func(c *core.Config) { c.ServerReplicas = 4 }},
		{[]string{"-byzantine-replicas", "0,2"}, func(c *core.Config) { c.ByzantineReplicas = []int{0, 2} }},
		{[]string{"-checkpoint", "ckpt.bin"}, func(c *core.Config) { c.CheckpointPath = "ckpt.bin" }},
		{[]string{"-checkpoint-period", "10"}, func(c *core.Config) { c.CheckpointEvery = 10 }},
	}
	covered := map[string]bool{}
	for _, row := range rows {
		var (
			got  core.Config
			list bool
		)
		if err := flags(&got, &list).Parse(row.args); err != nil {
			t.Fatalf("%v: %v", row.args, err)
		}
		want := defaults
		row.set(&want)
		if list || !reflect.DeepEqual(got, want) {
			t.Errorf("%v:\n got %+v\nwant %+v", row.args, got, want)
		}
		for _, arg := range row.args {
			if name, ok := strings.CutPrefix(arg, "-"); ok {
				name, _, _ = strings.Cut(name, "=")
				covered[name] = true
			}
		}
	}
	flags(new(core.Config), new(bool)).VisitAll(func(f *flag.Flag) {
		if !covered[f.Name] {
			t.Errorf("flag -%s has no row", f.Name)
		}
	})
}

func TestFlagsRejectBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-attack", "3:"},
		{"-attack", "x:random"},
		{"-recoup", "fill-zero"},
		{"-hijack", "1,x"},
		{"-byzantine-replicas", "a"},
		{"-udp-clock=maybe"},
		{"-no-such-flag"},
	} {
		fs := flags(new(core.Config), new(bool))
		fs.SetOutput(new(bytes.Buffer))
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestListings(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", ""}, "available experiments:"},
		{[]string{"-aggregator", ""}, "available aggregators:"},
		{[]string{"-attack", "list"}, "available optimizers:"},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%v: err %v, printed %q", tc.args, err, out.String())
		}
	}
}

// TestDeploymentsEndToEnd trains the Draco, replicated-server, TCP and lossy
// UDP deployments through the command line, the only production entry that
// reaches the first two, and requires each to report its final accuracy.
func TestDeploymentsEndToEnd(t *testing.T) {
	for _, cmdline := range []string{
		"-aggregator draco -f 1 -nb-workers 6 -max-step 20 -attack 2:reversed",
		"-server-replicas 4 -byzantine-replicas 2 -nb-workers 7 -f 1 -max-step 20 -attack 0:reversed",
		"-backend tcp -nb-workers 5 -f 1 -max-step 20",
		"-backend udp -nb-workers 5 -f 1 -max-step 20 -drop-rate 0.1",
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(cmdline), &out); err != nil {
			t.Errorf("%s: %v\n%s", cmdline, err, out.String())
		} else if !strings.Contains(out.String(), "\nfinal accuracy: ") {
			t.Errorf("%s: no final accuracy line\n%s", cmdline, out.String())
		}
	}
}
