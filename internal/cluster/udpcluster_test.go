package cluster

import (
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/transport"
)

// udpFixture builds a small 5-worker deployment over real UDP sockets.
func udpFixture(t *testing.T, cfg UDPClusterConfig) (*UDPCluster, *data.Dataset, func() *nn.Network) {
	t.Helper()
	ds := data.SyntheticFeatures(120, 6, 3, 9)
	ds.MinMaxScale()
	factory := func() *nn.Network {
		return nn.NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(10)))
	}
	cfg.Addr = "127.0.0.1:0"
	cfg.ModelFactory = factory
	cfg.Train = ds
	if cfg.Workers == 0 {
		cfg.Workers = 5
	}
	if cfg.Batch == 0 {
		cfg.Batch = 8
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = &opt.SGD{Schedule: opt.Fixed{Rate: 0.2}}
	}
	if cfg.GAR == nil {
		cfg.GAR = gar.NewMultiKrum(1)
	}
	cl, err := NewUDPCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl, ds, factory
}

// TestUDPClusterDeterministicLossyRounds is the construction-level
// determinism gate: two deployments with the same seed at 15% packet loss
// produce bit-identical parameters after the same number of rounds — the
// drop schedule and the recoup values are pure functions of
// (seed, step, worker) — and a different seed diverges.
func TestUDPClusterDeterministicLossyRounds(t *testing.T) {
	run := func(seed int64) []float64 {
		cl, _, _ := udpFixture(t, UDPClusterConfig{
			DropRate:  0.15,
			Recoup:    transport.FillRandom,
			Byzantine: map[int]string{4: "random"},
			Seed:      seed,
			MTU:       128, // several packets per gradient: loss really bites
		})
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for i := 0; i < 15; i++ {
			if _, err := cl.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return cl.Params()
	}
	a, b, c := run(3), run(3), run(4)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("same-seed lossy runs diverged at parameter %d: %v vs %v", i, a[i], b[i])
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
		t.Fatal("different seeds produced identical parameters; the seed is not threaded")
	}
}

// TestUDPClusterLosslessMatchesTCP pins cross-backend parity at the cluster
// layer: at dropRate 0 a UDP deployment and a TCP deployment of the same
// configuration produce bit-identical parameters (both reduce to the same
// worker gradient streams slotted by id).
func TestUDPClusterLosslessMatchesTCP(t *testing.T) {
	ds := data.SyntheticFeatures(120, 6, 3, 9)
	ds.MinMaxScale()
	factory := func() *nn.Network {
		return nn.NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(10)))
	}
	runUDP := func() []float64 {
		cl, err := NewUDPCluster(UDPClusterConfig{
			Addr: "127.0.0.1:0", ModelFactory: factory, Workers: 5,
			GAR: gar.NewMultiKrum(1), Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.2}},
			Batch: 8, Train: ds, Byzantine: map[int]string{4: "reversed"}, Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for i := 0; i < 10; i++ {
			if _, err := cl.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return cl.Params()
	}
	runTCP := func() []float64 {
		cl, err := NewTCPCluster(TCPClusterConfig{
			Addr: "127.0.0.1:0", ModelFactory: factory, Workers: 5,
			GAR: gar.NewMultiKrum(1), Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.2}},
			Batch: 8, Train: ds, Byzantine: map[int]string{4: "reversed"}, Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for i := 0; i < 10; i++ {
			if _, err := cl.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return cl.Params()
	}
	u, tc := runUDP(), runTCP()
	for i := range u {
		if math.Float64bits(u[i]) != math.Float64bits(tc[i]) {
			t.Fatalf("udp and tcp backends diverged at parameter %d: %v vs %v", i, u[i], tc[i])
		}
	}
}

// TestUDPClusterRecoupPolicies covers the three §3.3 policies against real
// in-flight loss: DropGradient shrinks the received count on rounds with
// whole-gradient losses, FillNaN hands non-finite slots to a containing GAR,
// FillRandom keeps every slot present and finite.
func TestUDPClusterRecoupPolicies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy transport.RecoupPolicy
		rule   gar.GAR
	}{
		{name: "drop-gradient", policy: transport.DropGradient, rule: gar.Average{}},
		{name: "fill-nan", policy: transport.FillNaN, rule: gar.SelectiveAverage{}},
		{name: "fill-random", policy: transport.FillRandom, rule: gar.NewMultiKrum(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, _, _ := udpFixture(t, UDPClusterConfig{
				GAR:      tc.rule,
				DropRate: 0.3,
				Recoup:   tc.policy,
				Seed:     7,
				MTU:      128,
			})
			if err := cl.Start(); err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			sawLoss := false
			for i := 0; i < 10; i++ {
				sr, err := cl.Step()
				if err != nil {
					t.Fatal(err)
				}
				if tc.policy == transport.DropGradient {
					if sr.Received < 5 {
						sawLoss = true
					}
				} else if sr.Received != 5 {
					t.Fatalf("round %d received %d, want 5 (lost coordinates recouped in place)", i, sr.Received)
				}
			}
			if tc.policy == transport.DropGradient && !sawLoss {
				t.Fatal("30% packet loss never dropped a whole gradient across 10 rounds — drop schedule not applied")
			}
			if tc.policy != transport.FillNaN && !cl.Params().IsFinite() {
				t.Fatalf("%s let the recoup poison the parameters", tc.name)
			}
		})
	}
}

// TestUDPClusterStragglerRoundTimeout: an unresponsive worker costs the
// deployment exactly one collection deadline — it is suspected afterwards —
// and training proceeds on the surviving quorum.
func TestUDPClusterStragglerRoundTimeout(t *testing.T) {
	defer releaseCheck(t)("over a straggler round")
	cl, _, _ := udpFixture(t, UDPClusterConfig{
		Workers:      5,
		Unresponsive: map[int]bool{2: true},
		RoundTimeout: 250 * time.Millisecond,
		Seed:         7,
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	sr, err := cl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Fatalf("first round returned in %v, before the deadline", elapsed)
	}
	if sr.Received != 4 {
		t.Fatalf("first round received %d gradients, want 4 (straggler timed out, DropGradient recoup)", sr.Received)
	}
	for i := 1; i < 5; i++ {
		roundStart := time.Now()
		sr, err = cl.Step()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Received != 4 {
			t.Fatalf("round %d received %d gradients, want 4", i, sr.Received)
		}
		if time.Since(roundStart) >= 250*time.Millisecond {
			t.Fatalf("round %d paid the deadline again despite suspicion", i)
		}
	}
	if !cl.Params().IsFinite() {
		t.Fatal("parameters went non-finite")
	}
}

// TestUDPClusterDeadlineSurvivesTraffic is TestUDPLinkDeadlineSurvivesTraffic
// on the server's side: Step passes one deadline to every receive, which the
// receiver arms once a recvmmsg batch, so a spoofer keeping the gradient
// socket busy with datagrams the round rejects cannot postpone the round past
// its timeout plus the batch in hand. Before the first round's deadline one
// worker is held unresponsive; a wait the traffic postpones is cut at 5 s by
// closing the endpoint.
func TestUDPClusterDeadlineSurvivesTraffic(t *testing.T) {
	defer releaseCheck(t)("over a spoofed straggler round")
	const timeout = 250 * time.Millisecond
	cl, _, _ := udpFixture(t, UDPClusterConfig{
		Workers:      5,
		Unresponsive: map[int]bool{2: true},
		RoundTimeout: timeout,
		Seed:         7,
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	spoof, err := transport.DialUDP(cl.recv.Addr(), transport.Codec{}, transport.DefaultMTU, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer spoof.Close()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				spoof.SendGradient(&transport.GradientMsg{Worker: 1 << 20, Step: 0, Grad: make([]float64, 3)})
			}
		}
	}()
	defer func() { close(stop); <-done }()
	cut := time.AfterFunc(5*time.Second, func() { cl.recv.Close() })
	defer cut.Stop()
	start := time.Now()
	sr, err := cl.Step()
	if err != nil {
		t.Fatalf("continuous rejected traffic postponed the round deadline past 5 s: %v", err)
	}
	if elapsed := time.Since(start); elapsed < timeout || elapsed > timeout+time.Second {
		t.Fatalf("the straggler round returned after %v, want its %v deadline plus at most one batch", elapsed, timeout)
	}
	if sr.Received != 4 {
		t.Fatalf("the round received %d gradients, want 4 (the spoofed datagrams rejected, the straggler timed out)", sr.Received)
	}
}

// TestUDPClusterSurvivesHostileDatagrams is the server-side robustness cell:
// raw garbage, out-of-range worker ids, wrong dimensions and the
// conflicting-Dim crasher packets are sprayed at the gradient endpoint
// mid-round, and training must complete unharmed — no panic, no corruption.
func TestUDPClusterSurvivesHostileDatagrams(t *testing.T) {
	defer releaseCheck(t)("over hostile datagrams")
	cl, _, _ := udpFixture(t, UDPClusterConfig{Seed: 7})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hostile, err := transport.DialUDP(cl.recv.Addr(), transport.Codec{}, transport.DefaultMTU, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer hostile.Close()
	dim := cl.Params().Dim()
	spray := func(step int) {
		// Out-of-range worker id.
		hostile.SendGradient(&transport.GradientMsg{Worker: 1 << 20, Step: step, Grad: make([]float64, 3)})
		// Wrong dimension for the deployment on a valid id.
		wrong := &transport.Packet{Worker: 1, Step: step, Dim: dim + 5, Offset: 0, Coords: make([]float64, 2)}
		hostile.SendPackets([]transport.Packet{*wrong}, nil)
		// The conflicting-Dim crasher pair on a stale step (spoofing an
		// honest id on the live step would merely stall that worker to the
		// deadline; the reassembler-level rejection has its own regression
		// tests in transport).
		small := &transport.Packet{Worker: 0, Step: step - 1, Dim: dim, Offset: 0, Coords: make([]float64, 1)}
		big := &transport.Packet{Worker: 0, Step: step - 1, Dim: 1 << 20, Offset: 1 << 19, Coords: make([]float64, 4)}
		hostile.SendPackets([]transport.Packet{*small}, nil)
		hostile.SendPackets([]transport.Packet{*big}, nil)
	}
	for i := 0; i < 5; i++ {
		spray(i)
		sr, err := cl.Step()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Received != 5 {
			t.Fatalf("round %d received %d, want 5 despite hostile datagrams", i, sr.Received)
		}
	}
	if !cl.Params().IsFinite() {
		t.Fatal("hostile datagrams corrupted the parameters")
	}
}

// TestUDPClusterTrainerSurface pins the Step and Model details the training
// loop relies on.
func TestUDPClusterTrainerSurface(t *testing.T) {
	ds := data.SyntheticFeatures(60, 4, 2, 5)
	factory := func() *nn.Network { return nn.NewMLP(4, nil, 2, rand.New(rand.NewSource(6))) }
	cl, err := NewUDPCluster(UDPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: factory,
		Workers:      3,
		GAR:          gar.Average{},
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:        4,
		Train:        ds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Step(); err == nil {
		t.Fatal("Step before Start succeeded")
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 2; i++ {
		sr, err := cl.Step()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Received != 3 || sr.Skipped || sr.Hijacked {
			t.Fatalf("unexpected step result %+v", sr)
		}
	}
	got := cl.Model().ParamsVector()
	want := cl.Params()
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("Model() out of sync with Params()")
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
	if _, err := cl.Step(); err == nil {
		t.Fatal("Step after Close succeeded")
	}
}

// TestUDPClusterConfigValidation pins the constructor's rejection surface.
func TestUDPClusterConfigValidation(t *testing.T) {
	ds := data.SyntheticFeatures(30, 4, 2, 5)
	factory := func() *nn.Network { return nn.NewMLP(4, nil, 2, rand.New(rand.NewSource(6))) }
	base := UDPClusterConfig{
		Addr: "127.0.0.1:0", ModelFactory: factory, Workers: 3,
		GAR: gar.Average{}, Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch: 4, Train: ds,
	}
	mutate := []func(*UDPClusterConfig){
		func(c *UDPClusterConfig) { c.DropRate = 1.0 },
		func(c *UDPClusterConfig) { c.DropRate = -0.1 },
		func(c *UDPClusterConfig) { c.ModelDropRate = 1.0 },
		func(c *UDPClusterConfig) { c.ModelDropRate = -0.1 },
		func(c *UDPClusterConfig) { c.MTU = 100000 },
		// Below the packet header + one coordinate: CoordsPerPacket would
		// clamp to 1 and every datagram would silently exceed the budget.
		func(c *UDPClusterConfig) { c.MTU = 16 },
		func(c *UDPClusterConfig) { c.MTU = c.Codec.MinMTU() - 1 },
		func(c *UDPClusterConfig) { c.Workers = 0 },
		func(c *UDPClusterConfig) { c.Byzantine = map[int]string{5: "reversed"} },
		func(c *UDPClusterConfig) { c.Byzantine = map[int]string{0: "no-such-attack"} },
		func(c *UDPClusterConfig) { c.Unresponsive = map[int]bool{9: true} },
		func(c *UDPClusterConfig) { c.GAR = gar.NewMultiKrum(2) }, // needs 7 workers
	}
	for i, m := range mutate {
		cfg := base
		m(&cfg)
		if _, err := NewUDPCluster(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

// TestUDPClusterSurvivesGradientSpoofCensorship is the cluster-layer
// failing-first regression test for the spoof-censorship bug: a Byzantine
// peer spoofing ONE datagram per honest worker — correct worker id, step
// and dimension, garbage Loss metadata — ahead of the round's honest
// packets used to pin the partials' metadata, so every honest packet was
// rejected as a "metadata conflict" and every round was skipped with zero
// gradients (DropGradient recoup): one datagram per worker censored the
// whole deployment. With evict-and-rebuild in the reassembler the honest
// packets evict the spoofed partials and the rounds complete normally.
func TestUDPClusterSurvivesGradientSpoofCensorship(t *testing.T) {
	defer releaseCheck(t)("over spoofed gradients")
	cl, _, _ := udpFixture(t, UDPClusterConfig{
		Workers:      3,
		GAR:          gar.Average{},
		Recoup:       transport.DropGradient,
		Seed:         11,
		RoundTimeout: 2 * time.Second,
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hostile, err := transport.DialUDP(cl.recv.Addr(), transport.Codec{}, transport.DefaultMTU, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer hostile.Close()
	dim := cl.Params().Dim()
	for step := 0; step < 4; step++ {
		// The spoofs are written before Step broadcasts the model, so they
		// are guaranteed to sit in the server's socket buffer ahead of any
		// honest gradient for this round.
		for id := 0; id < 3; id++ {
			spoof := &transport.Packet{
				Worker: id, Step: step, Loss: 999.25, Dim: dim, Offset: 0,
				Coords: make([]float64, 1),
			}
			if err := hostile.SendPackets([]transport.Packet{*spoof}, nil); err != nil {
				t.Fatal(err)
			}
		}
		sr, err := cl.Step()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Skipped || sr.Received != 3 {
			t.Fatalf("step %d: received %d (skipped=%v) — spoofed datagrams censored honest workers",
				step, sr.Received, sr.Skipped)
		}
		if sr.Loss > 500 {
			t.Fatalf("step %d: spoofed loss metadata leaked into the round mean (%v)", step, sr.Loss)
		}
	}
	if ev := cl.eng.Evictions(); ev == 0 {
		t.Fatal("no evictions recorded; the spoofs never raced the honest packets and the test lost its teeth")
	}
}

// nonLoopbackIPv4 returns a routable non-loopback IPv4 address of this
// host, or "" when the environment offers none (air-gapped CI).
func nonLoopbackIPv4(t *testing.T) string {
	t.Helper()
	addrs, err := net.InterfaceAddrs()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		ipn, ok := a.(*net.IPNet)
		if !ok || ipn.IP.IsLoopback() {
			continue
		}
		if v4 := ipn.IP.To4(); v4 != nil {
			return v4.String()
		}
	}
	return ""
}

// TestUDPClusterWorkerBindHostFollowsServer is the regression test for the
// hardcoded loopback model bind: with the server's gradient endpoint on a
// non-loopback interface, every worker's model endpoint must bind the
// interface its gradient socket dials the server through — binding
// "127.0.0.1" there (the old behaviour) silently confines the backend to
// one host, because a remote server cannot reach a loopback-bound endpoint.
func TestUDPClusterWorkerBindHostFollowsServer(t *testing.T) {
	host := nonLoopbackIPv4(t)
	if host == "" {
		t.Skip("no non-loopback IPv4 interface available")
	}
	cl, _, _ := udpFixture(t, UDPClusterConfig{Workers: 3, GAR: gar.Average{}, Seed: 5})
	cl.cfg.Addr = net.JoinHostPort(host, "0")
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for id, r := range cl.modelRecvs {
		got, _, err := net.SplitHostPort(r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if got != host {
			t.Fatalf("worker %d model endpoint bound %q, want the gradient-dial interface %q", id, got, host)
		}
	}
	// The deployment must actually train over the non-loopback path.
	for i := 0; i < 3; i++ {
		sr, err := cl.Step()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Received != 3 {
			t.Fatalf("step %d: received %d, want 3", i, sr.Received)
		}
	}
}
