package cluster

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// TestUDPClusterModelLossDeterministic is the construction-level determinism
// gate for footnote 12: with 20% scheduled loss on the model downlink AND
// 15% on the gradient uplink, two same-seed deployments produce bit-identical
// parameters (drop schedules, stale tags and recoup values are all pure
// functions of (seed, step, worker)), a different seed diverges, and stale
// submissions actually happened.
func TestUDPClusterModelLossDeterministic(t *testing.T) {
	run := func(seed int64) ([]float64, int) {
		cl, _, _ := udpFixture(t, UDPClusterConfig{
			DropRate:      0.15,
			Recoup:        transport.FillRandom,
			ModelDropRate: 0.2,
			StaleModels:   true,
			Byzantine:     map[int]string{4: "random"},
			Seed:          seed,
			MTU:           128, // several packets per transfer: loss really bites
		})
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		stale := 0
		for i := 0; i < 15; i++ {
			sr, err := cl.Step()
			if err != nil {
				t.Fatal(err)
			}
			stale += fold(sr).StaleGradients
		}
		return cl.Params(), stale
	}
	a, staleA := run(3)
	b, staleB := run(3)
	c, _ := run(4)
	if staleA == 0 {
		t.Fatal("20% model loss with stale recoup produced no stale submission in 15 rounds")
	}
	if staleA != staleB {
		t.Fatalf("same-seed runs saw %d vs %d stale submissions", staleA, staleB)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("same-seed lossy-model runs diverged at parameter %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical parameters; the model-drop seed is not threaded")
	}
}

// TestUDPClusterModelLossZeroRateParity pins the acceptance criterion that
// modelDropRate 0 runs are bit-identical to the pre-lossy-model behaviour:
// configuring the stale policy with a loss-free model channel must not
// perturb a single bit of the trajectory.
func TestUDPClusterModelLossZeroRateParity(t *testing.T) {
	run := func(stale bool) []float64 {
		cl, _, _ := udpFixture(t, UDPClusterConfig{
			DropRate:    0.15,
			Recoup:      transport.FillRandom,
			StaleModels: stale,
			Byzantine:   map[int]string{4: "reversed"},
			Seed:        13,
			MTU:         128,
		})
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for i := 0; i < 10; i++ {
			sr, err := cl.Step()
			if err != nil {
				t.Fatal(err)
			}
			if n := fold(sr).StaleGradients; n != 0 {
				t.Fatalf("round %d reported %d stale slots on a loss-free model channel", i, n)
			}
		}
		return cl.Params()
	}
	base, stale := run(false), run(true)
	for i := range base {
		if math.Float64bits(base[i]) != math.Float64bits(stale[i]) {
			t.Fatalf("stale policy at modelDropRate 0 changed parameter %d: %v vs %v", i, base[i], stale[i])
		}
	}
}

// TestUDPClusterModelRecoupSkipVsStale pins the two torn-broadcast policies:
// under skip (with DropGradient recoup) torn workers sit rounds out and the
// received count shrinks; under stale (with FillRandom recoup) every slot is
// present every round and the stale counter reports the substitutions.
func TestUDPClusterModelRecoupSkipVsStale(t *testing.T) {
	t.Run("skip", func(t *testing.T) {
		cl, _, _ := udpFixture(t, UDPClusterConfig{
			GAR:           gar.Average{},
			ModelDropRate: 0.25,
			StaleModels:   false,
			Recoup:        transport.DropGradient,
			Seed:          7,
			MTU:           128,
		})
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		sawLoss, stale := false, 0
		for i := 0; i < 10; i++ {
			sr, err := cl.Step()
			if err != nil {
				t.Fatal(err)
			}
			if sr.Received < 5 {
				sawLoss = true
			}
			stale += fold(sr).StaleGradients
		}
		if !sawLoss {
			t.Fatal("25% model loss with skip recoup never shrank a round — the downlink schedule is not applied")
		}
		if stale != 0 {
			t.Fatalf("skip policy reported %d stale submissions", stale)
		}
	})
	t.Run("stale", func(t *testing.T) {
		cl, _, _ := udpFixture(t, UDPClusterConfig{
			GAR:           gar.NewMultiKrum(1),
			ModelDropRate: 0.25,
			StaleModels:   true,
			Recoup:        transport.FillRandom,
			Seed:          7,
			MTU:           128,
		})
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		stale := 0
		for i := 0; i < 10; i++ {
			sr, err := cl.Step()
			if err != nil {
				t.Fatal(err)
			}
			if sr.Received != 5 {
				t.Fatalf("round %d received %d, want 5 (stale recoup keeps every slot present)", i, sr.Received)
			}
			stale += fold(sr).StaleGradients
		}
		if stale == 0 {
			t.Fatal("25% model loss with stale recoup reported no stale submission in 10 rounds")
		}
		if !cl.Params().IsFinite() {
			t.Fatal("stale recoup poisoned the parameters")
		}
	})
}

// TestUDPClusterModelLossByzantineMatrix is the stale-recoup Byzantine cell:
// {multi-krum, median} × {reversed, non-finite} with 5% model-broadcast loss
// and 10% gradient loss — hostile gradients, lost coordinates AND stale-model gradients
// all absorbed by the same Byzantine-resilient GAR. Training must stay
// finite and still converge on the recouped, partially stale rounds.
func TestUDPClusterModelLossByzantineMatrix(t *testing.T) {
	newRule := func(name string) gar.GAR {
		rule, err := gar.New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rule
	}
	for _, rule := range []string{"multi-krum", "median"} {
		for _, atk := range []string{"reversed", "non-finite"} {
			rule, atk := rule, atk
			t.Run(rule+"/"+atk, func(t *testing.T) {
				t.Parallel()
				ds := data.SyntheticFeatures(300, 10, 3, 50)
				ds.MinMaxScale()
				train, test := ds.Split(0.8)
				factory := func() *nn.Network {
					return nn.NewMLP(10, []int{16}, 3, rand.New(rand.NewSource(51)))
				}
				cl, err := NewUDPCluster(UDPClusterConfig{
					Addr:          "127.0.0.1:0",
					ModelFactory:  factory,
					Workers:       7,
					GAR:           newRule(rule),
					Optimizer:     &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
					Batch:         32,
					Train:         train,
					Byzantine:     map[int]string{6: atk},
					DropRate:      0.10,
					Recoup:        transport.FillRandom,
					ModelDropRate: 0.05,
					StaleModels:   true,
					MTU:           256,
					Seed:          13,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Start(); err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				stale := 0
				for i := 0; i < 150; i++ {
					sr, err := cl.Step()
					if err != nil {
						t.Fatal(err)
					}
					if sr.Received != 7 {
						t.Fatalf("round %d received %d gradients, want 7", i, sr.Received)
					}
					stale += fold(sr).StaleGradients
				}
				if stale == 0 {
					t.Fatal("no stale submission in 150 lossy-model rounds")
				}
				params := cl.Params()
				if !params.IsFinite() {
					t.Fatalf("%s let non-finite parameters through under %s with lossy model broadcasts", rule, atk)
				}
				model := factory()
				model.SetParamsVector(params)
				if acc := model.Accuracy(test.X, test.Y); acc < 0.7 {
					t.Fatalf("%s under %s with lossy channels converged to accuracy %v", rule, atk, acc)
				}
			})
		}
	}
}

// TestUDPClusterModelLossRejectsInformedAttacks pins the oracle-soundness
// guard: informed (omniscient-family) attacks recompute the honest workers'
// gradients from the shared seed, which assumes every honest worker samples
// once per round on the broadcast model — exactly what lossy model
// broadcasts break. The combination must be rejected, while blind attacks
// (and informed attacks on a loss-free model channel) stay accepted.
func TestUDPClusterModelLossRejectsInformedAttacks(t *testing.T) {
	ds := data.SyntheticFeatures(30, 4, 2, 5)
	factory := func() *nn.Network { return nn.NewMLP(4, nil, 2, rand.New(rand.NewSource(6))) }
	base := UDPClusterConfig{
		Addr: "127.0.0.1:0", ModelFactory: factory, Workers: 5,
		GAR: gar.Average{}, Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch: 4, Train: ds,
	}
	for _, atk := range []string{"omniscient", "little-is-enough", "mimic", "negative-sum", "stale"} {
		cfg := base
		cfg.ModelDropRate = 0.1
		cfg.Byzantine = map[int]string{4: atk}
		if _, err := NewUDPCluster(cfg); err == nil {
			t.Fatalf("informed attack %q accepted with lossy model broadcasts", atk)
		}
		cfg.ModelDropRate = 0
		if _, err := NewUDPCluster(cfg); err != nil {
			t.Fatalf("informed attack %q rejected on a loss-free model channel: %v", atk, err)
		}
	}
	for _, atk := range []string{"random", "reversed", "non-finite"} {
		cfg := base
		cfg.ModelDropRate = 0.1
		cfg.Byzantine = map[int]string{4: atk}
		if _, err := NewUDPCluster(cfg); err != nil {
			t.Fatalf("blind attack %q rejected with lossy model broadcasts: %v", atk, err)
		}
	}
}

// TestUDPClusterModelEndpointHostileSpam is the worker-endpoint twin of the
// server's hostile-datagram cell: spoofed model packets claiming distinct
// future steps (each would pin a model-sized partial pre-fix) and
// gradient-tagged garbage are sprayed at a worker's model endpoint
// mid-training. Training must complete unharmed; the bound on the
// worker-side reassembler is pinned where that receiver is visible, by
// transport's TestModelCollectorHostileFutureStepsBounded.
func TestUDPClusterModelEndpointHostileSpam(t *testing.T) {
	defer releaseCheck(t)("over model-endpoint spam")
	cl, _, _ := udpFixture(t, UDPClusterConfig{Seed: 7})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dim := cl.Params().Dim()
	hostile, err := transport.DialUDP(cl.modelRecvs[1].Addr(), transport.Codec{}, transport.DefaultMTU, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer hostile.Close()
	junk := make([]float64, dim)
	for i := 0; i < 5; i++ {
		// Distinct far-future model steps, each a PARTIAL packet claiming
		// the full dimension (pre-fix every one pinned a model-sized
		// partial forever), plus gradient-tagged spam.
		for s := 0; s < 8; s++ {
			partial := &transport.Packet{
				Worker: transport.ModelWorkerID, Step: 1000 + i*8 + s,
				Dim: dim, Offset: 0, Coords: junk[:1],
			}
			if err := hostile.SendPackets([]transport.Packet{*partial}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := hostile.SendGradient(&transport.GradientMsg{Worker: 2, Step: i, Grad: junk}); err != nil {
			t.Fatal(err)
		}
		sr, err := cl.Step()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Received != 5 {
			t.Fatalf("round %d received %d, want 5 despite model-endpoint spam", i, sr.Received)
		}
	}
	if !cl.Params().IsFinite() {
		t.Fatal("model-endpoint spam corrupted the parameters")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUDPLinkDeadlineSurvivesTraffic pins that a worker's wait on an
// in-flight broadcast is a deadline, not a per-read quiet period: in a live
// cluster, unrelated datagrams (later broadcasts, gradient-tagged spoofs)
// keep arriving, and they must not postpone the genuine-loss eviction
// forever. It is the one test of broadcast collection that waits in real
// time; a wait the traffic postpones is cut at 5 s by closing the endpoint.
func TestUDPLinkDeadlineSurvivesTraffic(t *testing.T) {
	const dim, mtu = 100, 128
	codec := transport.Codec{}
	recv, err := transport.ListenUDP("127.0.0.1:0", codec, transport.DropGradient, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := transport.DialUDP(recv.Addr(), codec, mtu, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	link := &udpLink{
		recv: recv,
		col:  transport.NewModelCollector(transport.ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec}),
		cfg:  &UDPClusterConfig{RoundTimeout: 300 * time.Millisecond},
	}
	// Genuine loss: only the first packet of step 0 arrives.
	model := codec.Split(&transport.GradientMsg{Worker: transport.ModelWorkerID, Step: 0, Grad: tensor.NewVector(dim)}, mtu)
	if err := send.SendPackets(model[:1], nil); err != nil {
		t.Fatal(err)
	}
	// A background stream of ignorable gradient-tagged datagrams, spaced
	// well under the round timeout.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		spam := codec.Split(&transport.GradientMsg{Worker: 3, Step: 0, Grad: tensor.NewVector(dim)}, mtu)
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
				send.SendPackets(spam[:1], nil)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	cut := time.AfterFunc(5*time.Second, func() { recv.Close() })
	defer cut.Stop()
	step, params, err := link.next(tensor.NewVector(dim))
	if err != nil {
		t.Fatalf("continuous ignorable traffic postponed the eviction past 5 s: %v", err)
	}
	if step != 0 || params != nil {
		t.Fatalf("settled step %d (complete %v), want step 0 lost", step, params != nil)
	}
}
