package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"aggregathor/internal/attack"
	"aggregathor/internal/core"
	"aggregathor/internal/gar"
	"aggregathor/internal/ps"
)

func TestApplyDefaultsCoversRegistries(t *testing.T) {
	var s Spec
	s.ApplyDefaults()
	if err := s.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	if len(s.GARs) != len(gar.Names()) {
		t.Errorf("default GAR axis %d rules, registry has %d", len(s.GARs), len(gar.Names()))
	}
	if len(s.Attacks) != len(attack.Names())+1 {
		t.Errorf("default attack axis %d entries, want registry+none = %d",
			len(s.Attacks), len(attack.Names())+1)
	}
	if s.Attacks[0] != AttackNone {
		t.Errorf("default attack axis must lead with the %q baseline, got %q", AttackNone, s.Attacks[0])
	}
	if len(s.Clusters) == 0 || len(s.Networks) == 0 || len(s.Seeds) == 0 {
		t.Fatalf("default axes empty: %+v", s)
	}
}

func TestExpandOrderAndCount(t *testing.T) {
	s := Spec{
		GARs:     []string{"average", "median"},
		Attacks:  []string{AttackNone, "reversed"},
		Clusters: []Cluster{{Workers: 5, F: 1}, {Workers: 7, F: 1}},
		Networks: []Network{{Name: "a"}, {Name: "b"}},
		Seeds:    []int64{1, 2, 3},
	}
	s.ApplyDefaults()
	runs := s.Expand()
	want := 2 * 2 * 2 * 2 * 3
	if len(runs) != want {
		t.Fatalf("expanded %d runs, want %d", len(runs), want)
	}
	for i, r := range runs {
		if r.Index != i {
			t.Fatalf("run %d has index %d", i, r.Index)
		}
	}
	// Seed is the innermost axis, GAR the outermost.
	if runs[0].Seed != 1 || runs[1].Seed != 2 || runs[2].Seed != 3 {
		t.Errorf("seed must vary innermost: %v %v %v", runs[0].Seed, runs[1].Seed, runs[2].Seed)
	}
	if runs[0].GAR != "average" || runs[len(runs)-1].GAR != "median" {
		t.Errorf("GAR must vary outermost: first %q last %q", runs[0].GAR, runs[len(runs)-1].GAR)
	}
	if runs[0].ID != "average/none/n5-f1/a/seed1" {
		t.Errorf("run ID format changed: %q", runs[0].ID)
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() Spec {
		s := Spec{}
		s.ApplyDefaults()
		return s
	}
	cases := map[string]func(*Spec){
		"unknown gar":       func(s *Spec) { s.GARs = []string{"nope"} },
		"unknown attack":    func(s *Spec) { s.Attacks = []string{"nope"} },
		"zero workers":      func(s *Spec) { s.Clusters = []Cluster{{Workers: 0}} },
		"f >= n":            func(s *Spec) { s.Clusters = []Cluster{{Workers: 3, F: 3}} },
		"unnamed network":   func(s *Spec) { s.Networks = []Network{{}} },
		"duplicate network": func(s *Spec) { s.Networks = []Network{{Name: "x"}, {Name: "x"}} },
		"duplicate gar":     func(s *Spec) { s.GARs = []string{"median", "average", "median"} },
		"duplicate attack":  func(s *Spec) { s.Attacks = []string{"none", "none"} },
		"duplicate cluster": func(s *Spec) { s.Clusters = []Cluster{{Workers: 5, F: 1}, {Workers: 5, F: 1}} },
		"duplicate seed":    func(s *Spec) { s.Seeds = []int64{1, 1} },
		"drop rate 1":       func(s *Spec) { s.Networks = []Network{{Name: "x", Network: core.Network{DropRate: 1}}} },
		"bad recoup":        func(s *Spec) { s.Networks = []Network{{Name: "x", Network: core.Network{Recoup: "nope"}}} },
		"bad protocol":      func(s *Spec) { s.Networks = []Network{{Name: "x", Network: core.Network{Protocol: "quic"}}} },
		"bad experiment":    func(s *Spec) { s.Experiment = "nope" },
		"bad optimizer":     func(s *Spec) { s.Optimizer = "nope" },
	}
	for name, mutate := range cases {
		s := base()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"gars": ["average"], "atacks": ["random"]}`)); err == nil {
		t.Fatal("typoed field accepted")
	}
	s, err := ParseSpec([]byte(`{
		"name": "mini",
		"gars": ["average"],
		"attacks": ["none"],
		"clusters": [{"workers": 5, "f": 1}],
		"networks": [{"name": "in-process"}],
		"seeds": [7],
		"steps": 2, "batch": 4
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "mini" || s.Seeds[0] != 7 || s.Optimizer != "rmsprop" {
		t.Fatalf("parsed spec %+v", s)
	}
}

// TestNetworkSchemaPinned pins a campaign network cell's JSON: every key, its
// name and its order, for a cell that sets every field (no built-in campaign
// does, so the smoke sha256s cannot see a key that moves) and for an empty
// churn block, whose rate is written even at zero. The literals are the bytes
// a Network produced when the async and churn axes were flat scenario fields;
// embedding core.Network and the ps types must reproduce them, and strict
// decoding — the unknown-field rejection ParseSpec applies — must read them
// back to the same value.
func TestNetworkSchemaPinned(t *testing.T) {
	cases := []struct {
		n    Network
		want string
	}{
		{Network{Name: "every-field", Network: core.Network{Backend: "udp", UDPLinks: 3, DropRate: 0.1, Recoup: "fill-nan",
			ModelDropRate: 0.2, WireFormat: "float32", ModelRecoup: "stale",
			AsyncConfig: ps.AsyncConfig{Quorum: 6, Staleness: 2, SlowRate: 0.25},
			Churn:       &ps.ChurnConfig{Rate: 0.08, DownSteps: 2, MaxRejoins: 3}, Protocol: "udp"}},
			`{"name":"every-field","backend":"udp","udpLinks":3,"dropRate":0.1,"recoup":"fill-nan",` +
				`"modelDropRate":0.2,"wireFormat":"float32","modelRecoup":"stale","quorum":6,"staleness":2,` +
				`"slowWorkers":0.25,"churn":{"rate":0.08,"downSteps":2,"maxRejoins":3},"protocol":"udp"}`},
		{Network{Name: "z", Network: core.Network{Churn: &ps.ChurnConfig{}}}, `{"name":"z","churn":{"rate":0}}`},
	}
	for _, tc := range cases {
		raw, err := json.Marshal(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != tc.want {
			t.Fatalf("network %q marshals to\n%s\nwant\n%s", tc.n.Name, raw, tc.want)
		}
		var back Network
		dec := json.NewDecoder(bytes.NewReader([]byte(tc.want)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("network %q: strict decode: %v", tc.n.Name, err)
		}
		if !reflect.DeepEqual(back, tc.n) {
			t.Fatalf("network %q decodes to %+v, want %+v", tc.n.Name, back, tc.n)
		}
	}
}

func TestExecuteRecordsInfeasibleRuns(t *testing.T) {
	s := Spec{
		GARs:     []string{"bulyan"},
		Attacks:  []string{AttackNone},
		Clusters: []Cluster{{Workers: 7, F: 2}}, // bulyan needs 4f+3 = 11
		Networks: []Network{{Name: "in-process"}},
		Steps:    2,
		Batch:    4,
	}
	c, err := Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Results) != 1 {
		t.Fatalf("got %d results", len(c.Results))
	}
	if c.Results[0].Error == "" {
		t.Fatal("infeasible bulyan run must record an error")
	}
	if !strings.Contains(c.Summary(), "infeasible") {
		t.Error("summary must surface infeasible runs")
	}
}

func TestExecuteSmallCampaignLearns(t *testing.T) {
	s := Spec{
		Name:      "learns",
		GARs:      []string{"multi-krum"},
		Attacks:   []string{AttackNone, "reversed"},
		Clusters:  []Cluster{{Workers: 11, F: 2}},
		Networks:  []Network{{Name: "in-process"}},
		Seeds:     []int64{1},
		Steps:     40,
		Batch:     32,
		LR:        5e-3,
		EvalEvery: 10,
		Threshold: 0.2,
	}
	c, err := Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range c.Results {
		if res.Error != "" {
			t.Fatalf("%s: %v", res.Run.ID, res.Error)
		}
		if res.AggTimePerRoundNS <= 0 || res.RoundTimeNS <= res.AggTimePerRoundNS {
			t.Errorf("%s: implausible timing agg=%dns round=%dns",
				res.Run.ID, res.AggTimePerRoundNS, res.RoundTimeNS)
		}
	}
	baseline := c.Results[0]
	if baseline.Run.Attack != AttackNone {
		t.Fatalf("expansion order changed: first run %q", baseline.Run.ID)
	}
	if baseline.FinalAccuracy < 0.15 {
		t.Errorf("honest multi-krum run failed to learn: accuracy %.3f", baseline.FinalAccuracy)
	}
	if baseline.StepsToThreshold < 0 {
		t.Errorf("honest run never reached threshold; accuracy %.3f", baseline.FinalAccuracy)
	}
	if baseline.SimTimeToThresholdNS <= 0 {
		t.Errorf("threshold sim time not recorded: %d", baseline.SimTimeToThresholdNS)
	}
}

func TestSummaryRanksPerAttack(t *testing.T) {
	s := Spec{
		GARs:     []string{"average", "median"},
		Attacks:  []string{AttackNone, "random"},
		Clusters: []Cluster{{Workers: 5, F: 1}},
		Networks: []Network{{Name: "in-process"}},
		Steps:    4,
		Batch:    8,
	}
	c, err := Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	sum := c.Summary()
	for _, want := range []string{"== attack: none ==", "== attack: random ==", "average", "median", "mean-acc"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}
