package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"aggregathor/internal/ps"
)

// churnReplay recomputes one churn cell's campaign counters straight from the
// schedule: crashes, admitted rejoins, and rounds whose scheduled participant
// count sits below minWorkers (0 = no bound). The engine's numbers must equal
// this pure function of the seed exactly.
func churnReplay(churn ps.ChurnConfig, seed int64, steps, workers, minWorkers int) (crashes, rejoins, below int) {
	for s := 0; s < steps; s++ {
		part := 0
		for w := 0; w < workers; w++ {
			switch churn.Phase(seed, s, w) {
			case ps.ChurnCrash:
				crashes++
			case ps.ChurnRejoin:
				rejoins++
				part++
			case ps.ChurnLive:
				part++
			}
		}
		if minWorkers > 0 && part < minWorkers {
			below++
		}
	}
	return crashes, rejoins, below
}

// TestChurnCampaignJSONDeterministic is the campaign acceptance gate for
// worker churn: the churn-smoke spec — steady in-process baseline, the
// crash/rejoin schedule on both socket backends, and a lossy-uplink churn
// cell — must produce byte-identical JSON across repeated executions and
// across serial vs parallel pools; every churn counter must equal the
// independent schedule replay exactly; steady cells must surface no churn
// numbers; and the loss-free tcp and udp churn cells of one (gar, attack)
// pair must report identical rows (the schedule lives in the seed, not in
// socket timing).
func TestChurnCampaignJSONDeterministic(t *testing.T) {
	spec := ChurnSmokeSpec()
	spec.Steps = 12
	spec.EvalEvery = 6

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
		t.Fatal("two executions of the churn-smoke spec produced different JSON")
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
		t.Fatal("serial execution of the churn-smoke spec differs from parallel execution")
	}

	// Counter semantics. Steady cells report nothing; every churn cell's
	// crash/rejoin/reconnect/below-bound counters equal the schedule replay.
	// The below-bound count is GAR-dependent: multi-krum f=1 enforces
	// n >= 2f+3 = 5 live workers, median has no resilience bound.
	minWorkers := map[string]int{"multi-krum": 5, "median": 0}
	churnRuns := 0
	for _, res := range first.Results {
		if res.Error != "" {
			t.Fatalf("%s: cell failed: %s", res.Run.ID, res.Error)
		}
		if res.Run.Network.Churn == nil {
			if res.Crashes != 0 || res.Rejoins != 0 || res.ReconnectAttempts != 0 || res.BelowBoundRounds != 0 {
				t.Fatalf("%s: steady cell surfaced churn counters: crashes=%d rejoins=%d attempts=%d below=%d",
					res.Run.ID, res.Crashes, res.Rejoins, res.ReconnectAttempts, res.BelowBoundRounds)
			}
			continue
		}
		churnRuns++
		churn := *res.Run.Network.Churn
		minW, ok := minWorkers[res.Run.GAR]
		if !ok {
			t.Fatalf("%s: no expected resilience bound for GAR %q", res.Run.ID, res.Run.GAR)
		}
		crashes, rejoins, below := churnReplay(churn, res.Run.Seed, spec.Steps, res.Run.Cluster.Workers, minW)
		if crashes == 0 || rejoins == 0 {
			t.Fatalf("dead fixture: schedule has %d crashes / %d rejoins in %d steps", crashes, rejoins, spec.Steps)
		}
		if res.Crashes != crashes || res.Rejoins != rejoins || res.BelowBoundRounds != below {
			t.Fatalf("%s: counters diverge from schedule replay: crashes %d (want %d), rejoins %d (want %d), below-bound %d (want %d)",
				res.Run.ID, res.Crashes, crashes, res.Rejoins, rejoins, res.BelowBoundRounds, below)
		}
		if res.ReconnectAttempts != res.Rejoins {
			t.Fatalf("%s: %d reconnect attempts for %d rejoins; the backoff ladder should land first-dial on loopback",
				res.Run.ID, res.ReconnectAttempts, res.Rejoins)
		}
	}
	if churnRuns == 0 {
		t.Fatal("churn-smoke campaign executed no churn cells")
	}

	// The loss-free churn cells must agree across backends row-for-row.
	type row struct {
		acc                               float64
		crashes, rejoins, attempts, below int
	}
	byBackend := map[string]map[string]row{}
	for _, res := range first.Results {
		n := res.Run.Network.Name
		if n != "churn-tcp" && n != "churn-udp" {
			continue
		}
		key := res.Run.GAR + "/" + res.Run.Attack
		if byBackend[key] == nil {
			byBackend[key] = map[string]row{}
		}
		byBackend[key][n] = row{res.FinalAccuracy, res.Crashes, res.Rejoins, res.ReconnectAttempts, res.BelowBoundRounds}
	}
	for key, cells := range byBackend {
		if len(cells) != 2 {
			t.Fatalf("%s: expected both loss-free churn backends, got %v", key, cells)
		}
		if cells["churn-tcp"] != cells["churn-udp"] {
			t.Fatalf("%s: churn cells diverge across backends: tcp %+v vs udp %+v", key, cells["churn-tcp"], cells["churn-udp"])
		}
	}
}

// TestChurnZeroRateBitParity pins the no-op guarantee of the churn axis: a
// network cell carrying an explicit churn block with rate 0 must reproduce
// the result rows of the identical cell without any churn block, byte for
// byte — on the plain udp cells and on the asynchronous cells alike. This is
// what lets churn ride into existing campaign specs without perturbing their
// recorded trajectories.
func TestChurnZeroRateBitParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec func() Spec
	}{
		{"udp-smoke", UDPSmokeSpec},
		{"async-smoke", AsyncSmokeSpec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.spec()
			base.Steps = 6
			base.EvalEvery = 3
			withZero := tc.spec()
			withZero.Steps = 6
			withZero.EvalEvery = 3
			for i := range withZero.Networks {
				withZero.Networks[i].Churn = &ps.ChurnConfig{Rate: 0}
			}
			plain, err := Execute(base)
			if err != nil {
				t.Fatal(err)
			}
			zeroed, err := Execute(withZero)
			if err != nil {
				t.Fatal(err)
			}
			// The spec echo necessarily differs (one carries churn blocks);
			// the results must not. Strip the echoed network from each row so
			// the comparison is about trajectories and counters only.
			strip := func(c *Campaign) []byte {
				rows := make([]Result, len(c.Results))
				copy(rows, c.Results)
				for i := range rows {
					rows[i].Run.Network.Churn = nil
				}
				raw, err := json.Marshal(rows)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			if !bytes.Equal(strip(plain), strip(zeroed)) {
				t.Fatalf("%s: churn rate 0 perturbed the campaign results", tc.name)
			}
		})
	}
}

// TestNetworkValidationChurn pins the churn validation surface: the schedule
// needs a socket backend, refuses to compose with asynchronous rounds, lossy
// model broadcasts and informed attacks, and half-disabled blocks fail
// loudly.
func TestNetworkValidationChurn(t *testing.T) {
	// The default attack sweep includes informed attacks, which churn rejects
	// by design — pin a blind sweep so these cases probe the network axis.
	base := func(n Network) *Spec {
		s := Spec{Networks: []Network{n}, Attacks: []string{AttackNone}}
		s.ApplyDefaults()
		return &s
	}
	valid := ps.ChurnConfig{Rate: 0.05, DownSteps: 2, MaxRejoins: 2}
	if err := base(Network{Name: "a", Backend: "tcp", Churn: &valid}).Validate(); err != nil {
		t.Fatalf("valid tcp churn network rejected: %v", err)
	}
	if err := base(Network{Name: "a", Backend: "udp", Churn: &valid, DropRate: 0.1, Recoup: "fill-random"}).Validate(); err != nil {
		t.Fatalf("valid lossy-uplink churn network rejected: %v", err)
	}
	if err := base(Network{Name: "a", Churn: &valid}).Validate(); err == nil {
		t.Fatal("churn on the in-process backend accepted")
	}
	err := base(Network{Name: "a", Backend: "tcp", Churn: &valid, AsyncConfig: ps.AsyncConfig{Quorum: 6, Staleness: 2}}).Validate()
	if !errors.Is(err, ps.ErrChurnAsync) {
		t.Fatalf("churn composed with async rounds: got %v, want ErrChurnAsync", err)
	}
	err = base(Network{Name: "a", Backend: "udp", Churn: &valid, ModelDropRate: 0.1}).Validate()
	if !errors.Is(err, ps.ErrChurnModelLoss) {
		t.Fatalf("churn composed with lossy model broadcasts: got %v, want ErrChurnModelLoss", err)
	}
	err = base(Network{Name: "a", Backend: "udp", Churn: &valid, ModelRecoup: "stale"}).Validate()
	if !errors.Is(err, ps.ErrChurnModelLoss) {
		t.Fatalf("churn composed with the stale model recoup: got %v, want ErrChurnModelLoss", err)
	}
	if err := base(Network{Name: "a", Backend: "tcp", Churn: &ps.ChurnConfig{Rate: 1.0, DownSteps: 2, MaxRejoins: 2}}).Validate(); err == nil {
		t.Fatal("churn rate 1.0 accepted")
	}
	if err := base(Network{Name: "a", Backend: "tcp", Churn: &ps.ChurnConfig{Rate: 0.05}}).Validate(); err == nil {
		t.Fatal("churn without downSteps accepted")
	}
	if err := base(Network{Name: "a", Backend: "tcp", Churn: &ps.ChurnConfig{DownSteps: 2}}).Validate(); err == nil {
		t.Fatal("half-disabled churn block (downSteps without rate) accepted")
	}
	// Informed attacks recompute honest gradients from the seed; the churn
	// schedule breaks that oracle, so the sweep combination is rejected at
	// the spec level before any cell runs.
	s := Spec{
		Networks: []Network{{Name: "a", Backend: "tcp", Churn: &valid}},
		Attacks:  []string{AttackNone, "omniscient"},
	}
	s.ApplyDefaults()
	if err := s.Validate(); err == nil {
		t.Fatal("informed attack swept against a churn network accepted")
	}
	blind := Spec{
		Networks: []Network{{Name: "a", Backend: "tcp", Churn: &valid}},
		Attacks:  []string{AttackNone, "reversed"},
	}
	blind.ApplyDefaults()
	if err := blind.Validate(); err != nil {
		t.Fatalf("blind attack swept against a churn network rejected: %v", err)
	}
}
