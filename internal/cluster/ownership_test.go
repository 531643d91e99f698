package cluster

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aggregathor/internal/attack"
	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// aliasProbe is an informed attack that inspects what the oracle hands it:
// every Honest vector must be memory of its own — not another's, not the
// worker's own gradient. It forges the honest mean.
type aliasProbe struct{}

var aliasProbeCalls, aliasProbeHonest, aliasProbeAliased atomic.Int64

func (aliasProbe) Name() string         { return "test-oracle-alias-probe" }
func (aliasProbe) RequiresHonest() bool { return true }

func (aliasProbe) Forge(ctx *attack.Context) tensor.Vector {
	aliasProbeCalls.Add(1)
	aliasProbeHonest.Add(int64(len(ctx.Honest)))
	for i, g := range ctx.Honest {
		if &g[0] == &ctx.Own[0] {
			aliasProbeAliased.Add(1)
		}
		for _, h := range ctx.Honest[:i] {
			if &g[0] == &h[0] {
				aliasProbeAliased.Add(1)
			}
		}
	}
	return tensor.Mean(ctx.Honest)
}

func init() {
	attack.Register(aliasProbe{}.Name(), func() attack.Attack { return aliasProbe{} })
}

// TestPeerOracleGradientsAreDistinctVectors is the regression a borrowed
// gradient invites: the omniscient oracle computes every honest peer's
// gradient on one replica, so it must take copies — were they views, every
// Honest entry would be the last peer's gradient. The real TCP worker loop
// runs an informed attack with four honest peers for two rounds; the attack
// sees distinct vectors, and its forgery — their mean — is the one computed
// here from four separately owned gradients.
func TestPeerOracleGradientsAreDistinctVectors(t *testing.T) {
	const (
		workers = 5
		byzID   = 2
		batch   = 8
		seed    = 17
		rounds  = 2
	)
	ds := data.SyntheticFeatures(120, 6, 3, 9)
	ds.MinMaxScale()
	factory := func() *nn.Network {
		return nn.NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(10)))
	}
	params := factory().ParamsVector()
	cfg := &TCPClusterConfig{
		ModelFactory: factory, Workers: workers, Batch: batch, Train: ds,
		Byzantine: map[int]string{byzID: aliasProbe{}.Name()}, Seed: seed,
	}
	ln, err := transport.ListenTCP("127.0.0.1:0", cfg.Codec)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	cl := &TCPCluster{}
	cl.cfg, cl.rounds = *cfg, cfg.round()
	aliasProbeCalls.Store(0)
	aliasProbeHonest.Store(0)
	aliasProbeAliased.Store(0)
	go func() { done <- cl.runWorker(ln.Addr(), byzID) }()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.RecvGradient(); err != nil { // the worker's hello
		t.Fatal(err)
	}

	replica := factory()
	samplers := map[int]*data.UniformSampler{}
	for p := 0; p < workers; p++ {
		if p != byzID {
			samplers[p] = data.NewUniformSampler(ds, ps.SamplerSeed(seed, p))
		}
	}
	for step := 0; step < rounds; step++ {
		if err := conn.SendModelCoords(step, cfg.Codec.WireCoords(params, new([]byte))); err != nil {
			t.Fatal(err)
		}
		msg, err := conn.RecvGradient()
		if err != nil {
			t.Fatal(err)
		}
		var honest []tensor.Vector
		for p := 0; p < workers; p++ {
			if p != byzID {
				x, y := samplers[p].Sample(batch)
				_, g := replica.Gradient(x, y)
				honest = append(honest, g)
			}
		}
		want := tensor.Mean(honest)
		for i := range want {
			if math.Float64bits(msg.Grad[i]) != math.Float64bits(want[i]) {
				t.Fatalf("step %d: forged coordinate %d is %v, the mean of the four honest gradients is %v", step, i, msg.Grad[i], want[i])
			}
		}
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatalf("worker exited with %v", err)
	}
	if calls, seen := aliasProbeCalls.Load(), aliasProbeHonest.Load(); calls != rounds || seen != rounds*(workers-1) {
		t.Fatalf("the attack forged %d times over %d honest gradients, want %d over %d", calls, seen, rounds, rounds*(workers-1))
	}
	if n := aliasProbeAliased.Load(); n != 0 {
		t.Fatalf("%d of the oracle's honest gradients share memory with another or with the worker's own", n)
	}
}

// TestInformedSubmissionAllocatesNothing: a warm informed worker's
// submission — its own gradient, every honest peer's through the oracle and
// the forgery — allocates nothing. Each peer's gradient is copied into a
// buffer kept from the first round, where a fresh vector per peer a round
// made it n−f−1 d-sized allocations.
func TestInformedSubmissionAllocatesNothing(t *testing.T) {
	ds := data.SyntheticFeatures(40, 6, 3, 9)
	spec := &UDPClusterConfig{
		ModelFactory: func() *nn.Network { return nn.NewMLP(6, []int{4}, 3, rand.New(rand.NewSource(1))) },
		Workers:      7,
		Batch:        4,
		Train:        ds,
		Byzantine:    map[int]string{5: "little-is-enough", 6: "little-is-enough"},
		Seed:         3,
	}
	rc := spec.round()
	w, err := newClusterWorker(6, spec, &rc)
	if err != nil {
		t.Fatal(err)
	}
	model := &transport.ModelMsg{Params: spec.ModelFactory().ParamsVector()}
	first := w.submission(model).Grad.Clone()
	allocs := testing.AllocsPerRun(10, func() { w.submission(model) })
	if allocs != 0 {
		t.Fatalf("a warm informed submission allocates %v times, want 0", allocs)
	}
	if len(w.honest) != 5 || first.Dim() != w.replica.NumParams() {
		t.Fatalf("the oracle holds %d honest gradients and forged %d coordinates, want 5 and %d", len(w.honest), first.Dim(), w.replica.NumParams())
	}
}

// TestTCPStaleTagTrainsInTheReceiveBuffer: a TCP worker receives every
// broadcast into its replica's parameter store, and a round the slow schedule
// tags with an older step trains the replica on that retained model in place
// — after the fresh one was copied out for later rounds — while the next
// broadcast still lands in the receive buffer. With a slow schedule three
// steps deep, a quorum that admits stale slots and a blind Byzantine worker,
// the TCP cluster must walk the in-process cluster's trajectory bit for bit
// (an in-process replica trains on the vector its plan names, never received
// into). Churn cannot share a cell with a slow schedule (ps.ErrChurnAsync);
// its fresh connection continuing into the same store is what
// TestUDPClusterChurnMatchesTCP pins.
func TestTCPStaleTagTrainsInTheReceiveBuffer(t *testing.T) {
	staleTagTrainsInTheReceiveBuffer(t, "tcp")
}

// TestUDPStaleTagTrainsInTheReceiveBuffer is the datagram twin: a UDP
// worker's collector assembles every broadcast in the replica's parameter
// store, so the same cell must walk the same in-process trajectory.
func TestUDPStaleTagTrainsInTheReceiveBuffer(t *testing.T) {
	staleTagTrainsInTheReceiveBuffer(t, "udp")
}

func staleTagTrainsInTheReceiveBuffer(t *testing.T, backend string) {
	const (
		n      = 7
		seed   = int64(13)
		rounds = 30
	)
	async := ps.AsyncConfig{Quorum: 4, Staleness: 3, SlowRate: 0.5}
	byz := map[int]string{5: "reversed"}
	train, _, factory := asyncFixture()

	workers := make([]ps.WorkerConfig, n)
	for i := range workers {
		workers[i] = ps.WorkerConfig{Sampler: data.NewUniformSampler(train, ps.SamplerSeed(seed, i)), Seed: seed + int64(i)}
		if name, ok := byz[i]; ok {
			atk, err := attack.New(name)
			if err != nil {
				t.Fatal(err)
			}
			workers[i].Attack = atk
		}
	}
	inproc, err := ps.New(ps.Config{
		ModelFactory: factory, Workers: workers, GAR: gar.Median{},
		Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}}, Batch: 32, Seed: seed, Async: async,
	})
	if err != nil {
		t.Fatal(err)
	}
	sock := newSocketCluster(t, backend, train, factory, async, byz)
	if err := sock.Start(); err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	stale := 0
	for step := 0; step < rounds; step++ {
		ri, err := inproc.Step()
		if err != nil {
			t.Fatal(err)
		}
		rt, err := sock.Step()
		if err != nil {
			t.Fatal(err)
		}
		if rt.Received != ri.Received || rt.Skipped != ri.Skipped || !slices.Equal(rt.Slots, ri.Slots) ||
			math.Float64bits(rt.Loss) != math.Float64bits(ri.Loss) {
			t.Fatalf("step %d: %s round %+v diverges from in-process %+v", step, backend, rt, ri)
		}
		pi, pt := inproc.Params(), sock.Params()
		for i := range pi {
			if math.Float64bits(pi[i]) != math.Float64bits(pt[i]) {
				t.Fatalf("step %d: parameter %d is %v over %s, %v in-process", step, i, pt[i], backend, pi[i])
			}
		}
		stale += fold(ri).AdmittedStale
	}
	if stale < rounds {
		t.Fatalf("the schedule admitted %d stale slots over %d rounds: too few to exercise the stale-tag path (dead fixture)", stale, rounds)
	}
}

// TestTCPDuplicateFrameFailsLoudlyAndSparesTheRow: the worker's row reaches
// its connection's reader only through the row channel, so a second frame
// for the same round — which finds the row held by the round — lands in a
// vector of its own. The Step still fails loudly with reject-duplicate, the
// admitted frame's coordinates are bit for bit what its worker sent, and the
// duplicate's vector, not the row, is what goes back to the readers.
func TestTCPDuplicateFrameFailsLoudlyAndSparesTheRow(t *testing.T) {
	defer releaseCheck(t)("over a duplicate frame")
	ds := data.SyntheticFeatures(120, 6, 3, 9)
	cl, err := NewTCPCluster(TCPClusterConfig{
		Addr: "127.0.0.1:0", Workers: 2, Batch: 8, Train: ds, Seed: 21, GAR: gar.Average{},
		ModelFactory: func() *nn.Network { return nn.NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(10))) },
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Start, with the test playing both workers: worker 1 stays silent, so
	// the round is still waiting when the duplicate arrives.
	if cl.ln, err = transport.ListenTCP("127.0.0.1:0", cl.cfg.Codec); err != nil {
		t.Fatal(err)
	}
	cl.started, cl.inbox = true, make(chan recvEvent, 4)
	cl.readerWG.Add(1)
	go cl.serve()
	defer closeWithin(t, cl, 5*time.Second)
	d := cl.Model().NumParams()
	peers := make([]*transport.TCPConn, 2)
	for id := range peers {
		if peers[id], err = transport.DialTCP(cl.ln.Addr(), cl.cfg.Codec); err != nil {
			t.Fatal(err)
		}
		defer peers[id].Close()
		if err := peers[id].SendGradient(&transport.GradientMsg{Worker: id, Loss: 1, Grad: tensor.NewVector(helloDim)}); err != nil {
			t.Fatal(err)
		}
		if err := cl.admitStartup(<-cl.inbox); err != nil {
			t.Fatal(err)
		}
		peers[id].SetExpectDim(d)
	}
	row := tensor.NewVector(d)
	cl.rows[0] <- row
	sent := make(tensor.Vector, d)
	for i := range sent {
		sent[i] = float64(i) + 0.5
	}
	worker := make(chan error, 1)
	go func() {
		params := tensor.NewVector(d)
		if _, err := peers[1].RecvModel(params); err != nil { // worker 1 takes the broadcast and says nothing
			worker <- err
			return
		}
		if _, err := peers[0].RecvModel(params); err != nil {
			worker <- err
			return
		}
		dup := &transport.GradientMsg{Worker: 0, Step: 0, Loss: 2, Grad: make(tensor.Vector, d)}
		err := peers[0].SendGradient(&transport.GradientMsg{Worker: 0, Step: 0, Loss: 1, Grad: sent})
		if err == nil {
			err = peers[0].SendGradient(dup)
		}
		worker <- err
	}()
	if _, err := cl.Step(); err == nil || !strings.Contains(err.Error(), ps.RejectDuplicate.String()) {
		t.Fatalf("Step over a duplicate frame returned %v, want %v", err, ps.RejectDuplicate)
	}
	if err := <-worker; err != nil {
		t.Fatal(err)
	}
	if held := cl.held[0]; held == nil || &held[0] != &row[0] || !sameBits(held, sent) {
		t.Fatal("the admitted frame is not the worker's bits in its row")
	}
	select {
	case back := <-cl.rows[0]:
		if &back[0] == &row[0] || !sameBits(back, make(tensor.Vector, d)) {
			t.Fatal("the vector handed back is not the duplicate's own")
		}
	default:
		t.Fatal("the duplicate's vector was not handed back")
	}
}
