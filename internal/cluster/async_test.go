package cluster

import (
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// asyncFixture is the shared dataset/model of the async cluster tests — the
// same shape as the Byzantine matrix so results stay comparable.
func asyncFixture() (*data.Dataset, *data.Dataset, func() *nn.Network) {
	ds := data.SyntheticFeatures(300, 10, 3, 50)
	ds.MinMaxScale()
	train, test := ds.Split(0.8)
	factory := func() *nn.Network {
		return nn.NewMLP(10, []int{16}, 3, rand.New(rand.NewSource(51)))
	}
	return train, test, factory
}

// socketCluster is the surface both socket backends share in these tests.
type socketCluster interface {
	Start() error
	Step() (*ps.StepResult, error)
	Params() tensor.Vector
	Close() error
}

func newSocketCluster(t *testing.T, backend string, train *data.Dataset,
	factory func() *nn.Network, async ps.AsyncConfig, byz map[int]string) socketCluster {
	t.Helper()
	switch backend {
	case "tcp":
		cl, err := NewTCPCluster(TCPClusterConfig{
			Addr:         "127.0.0.1:0",
			ModelFactory: factory,
			Workers:      7,
			GAR:          gar.Median{},
			Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
			Batch:        32,
			Train:        train,
			Byzantine:    byz,
			Seed:         13,
			Async:        async,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	case "udp":
		cl, err := NewUDPCluster(UDPClusterConfig{
			Addr:         "127.0.0.1:0",
			ModelFactory: factory,
			Workers:      7,
			GAR:          gar.Median{},
			Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
			Batch:        32,
			Train:        train,
			Byzantine:    byz,
			Seed:         13,
			Async:        async,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	default:
		t.Fatalf("unknown backend %q", backend)
		return nil
	}
}

// TestAsyncLockstepParitySockets: on both socket backends, an async
// configuration demanding every slot fresh (Quorum = n, no slow schedule)
// must reproduce the plain synchronous trajectory bit-for-bit, round by
// round, with zero staleness counted — the socket half of the tentpole's
// lockstep-parity contract.
func TestAsyncLockstepParitySockets(t *testing.T) {
	for _, backend := range []string{"tcp", "udp"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			train, _, factory := asyncFixture()
			plain := newSocketCluster(t, backend, train, factory, ps.AsyncConfig{}, nil)
			async := newSocketCluster(t, backend, train, factory, ps.AsyncConfig{Quorum: 7}, nil)
			for _, cl := range []socketCluster{plain, async} {
				if err := cl.Start(); err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
			}
			for step := 0; step < 15; step++ {
				rp, err := plain.Step()
				if err != nil {
					t.Fatal(err)
				}
				ra, err := async.Step()
				if err != nil {
					t.Fatal(err)
				}
				if ra.AdmittedStale != 0 || ra.DroppedStale != 0 || ra.Skipped {
					t.Fatalf("step %d: quorum-n async counted staleness or skipped: %+v", step, ra)
				}
				if rp.Received != ra.Received {
					t.Fatalf("step %d: received %d vs %d", step, rp.Received, ra.Received)
				}
				p, a := plain.Params(), async.Params()
				for i := range p {
					if math.Float64bits(p[i]) != math.Float64bits(a[i]) {
						t.Fatalf("step %d: parameter %d diverged between plain and quorum-n async", step, i)
					}
				}
			}
		})
	}
}

// TestAsyncSlowCrossBackendParity is the determinism keystone of the async
// design: with a slow-worker schedule active, the in-process cluster, the TCP
// cluster and the (loss-free) UDP cluster must walk the same trajectory —
// identical per-round counters, bit-identical losses and parameters — because
// every endpoint evaluates the same pure schedule off the same run seed.
func TestAsyncSlowCrossBackendParity(t *testing.T) {
	const (
		n      = 7
		seed   = int64(13)
		rounds = 25
	)
	async := ps.AsyncConfig{Quorum: 5, Staleness: 2, SlowRate: 0.3}
	train, _, factory := asyncFixture()

	workers := make([]ps.WorkerConfig, n)
	for i := range workers {
		workers[i] = ps.WorkerConfig{
			Sampler: data.NewUniformSampler(train, ps.SamplerSeed(seed, i)),
			Seed:    seed + int64(i),
		}
	}
	inproc, err := ps.New(ps.Config{
		ModelFactory: factory,
		Workers:      workers,
		GAR:          gar.Median{},
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
		Batch:        32,
		Seed:         seed,
		Async:        async,
	})
	if err != nil {
		t.Fatal(err)
	}
	tcp := newSocketCluster(t, "tcp", train, factory, async, nil)
	udp := newSocketCluster(t, "udp", train, factory, async, nil)
	for _, cl := range []socketCluster{tcp, udp} {
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
	}

	staleTotal, droppedTotal := 0, 0
	for step := 0; step < rounds; step++ {
		ri, err := inproc.Step()
		if err != nil {
			t.Fatal(err)
		}
		rt, err := tcp.Step()
		if err != nil {
			t.Fatal(err)
		}
		ru, err := udp.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range []struct {
			name string
			got  *ps.StepResult
		}{{"tcp", rt}, {"udp", ru}} {
			if pair.got.Received != ri.Received || pair.got.Skipped != ri.Skipped ||
				pair.got.AdmittedStale != ri.AdmittedStale || pair.got.DroppedStale != ri.DroppedStale {
				t.Fatalf("step %d: %s counters %+v diverge from in-process %+v", step, pair.name, pair.got, ri)
			}
			if math.Float64bits(pair.got.Loss) != math.Float64bits(ri.Loss) {
				t.Fatalf("step %d: %s mean loss %v diverges from in-process %v", step, pair.name, pair.got.Loss, ri.Loss)
			}
		}
		pi, pt, pu := inproc.Params(), tcp.Params(), udp.Params()
		for i := range pi {
			if math.Float64bits(pi[i]) != math.Float64bits(pt[i]) || math.Float64bits(pi[i]) != math.Float64bits(pu[i]) {
				t.Fatalf("step %d: parameter %d diverged across backends", step, i)
			}
		}
		staleTotal += ri.AdmittedStale
		droppedTotal += ri.DroppedStale
	}
	if staleTotal == 0 || droppedTotal == 0 {
		t.Fatalf("schedule admitted %d stale and dropped %d slots over %d rounds; need both > 0 (dead fixture)",
			staleTotal, droppedTotal, rounds)
	}
}

// TestUDPAsyncByzantineStalenessMatrix is the hostile end of the async design:
// {multi-krum, median, bulyan} × {reversed, non-finite} × τ ∈ {1, 3} over real
// UDP sockets with 10% seeded packet loss, fill-random recoup and a
// slow-worker schedule. Every round's counters must match an independent
// evaluation of the two schedules (slow + drop), and training must still
// converge despite hostile gradients, lost coordinates AND stale updates
// hitting the same GAR.
func TestUDPAsyncByzantineStalenessMatrix(t *testing.T) {
	const (
		n    = 7
		seed = int64(13)
		// bulyan (f=1) needs all 7 slots, so it only aggregates on rounds the
		// slow schedule leaves intact (~48% at τ=1); 300 steps leave it ~145
		// aggregating rounds, comparable to the synchronous matrix's 100.
		steps    = 300
		mtu      = 256
		dropRate = 0.10
		quorum   = 6
	)
	train, test, factory := asyncFixture()
	dim := factory().ParamsVector().Dim()
	pktCount := transport.Codec{}.PacketsPerTransfer(dim, mtu)
	for _, ruleName := range []string{"multi-krum", "median", "bulyan"} {
		for _, atk := range []string{"reversed", "non-finite"} {
			for _, tau := range []int{1, 3} {
				ruleName, atk, tau := ruleName, atk, tau
				t.Run(ruleName+"/"+atk+"/tau="+string(rune('0'+tau)), func(t *testing.T) {
					t.Parallel()
					rule, err := gar.New(ruleName, 1)
					if err != nil {
						t.Fatal(err)
					}
					minWorkers := 0
					if info, ok := rule.(gar.ByzantineInfo); ok {
						minWorkers = info.MinWorkers()
					}
					async := ps.AsyncConfig{Quorum: quorum, Staleness: tau, SlowRate: 0.2}
					cl, err := NewUDPCluster(UDPClusterConfig{
						Addr:         "127.0.0.1:0",
						ModelFactory: factory,
						Workers:      n,
						GAR:          rule,
						// Stale updates at the synchronous matrix's rate 0.3
						// oscillate late in the run; 0.2 stays stable under
						// every τ here.
						Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.2}},
						Batch:     32,
						Train:     train,
						Byzantine: map[int]string{6: atk},
						DropRate:  dropRate,
						Recoup:    transport.FillRandom,
						MTU:       mtu,
						Seed:      seed,
						Async:     async,
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := cl.Start(); err != nil {
						t.Fatal(err)
					}
					defer cl.Close()
					staleTotal, droppedTotal, aggregated := 0, 0, 0
					for s := 0; s < steps; s++ {
						// Independent prediction from the two pure schedules:
						// a slot sits out when its scheduled lag breaches τ;
						// fill-random recoups every other slot, but only slots
						// with at least one surviving uplink packet carry an
						// actual (possibly stale-tagged) worker submission.
						wantDropped, wantStale := 0, 0
						for id := 0; id < n; id++ {
							tag := async.ExpectedTag(seed, s, id)
							if tag < 0 {
								wantDropped++
								continue
							}
							if tag < s {
								mask := ps.UplinkDrops(rand.New(rand.NewSource(seed)), make([]bool, pktCount), seed, s, id, dropRate)
								if transport.CountSurvivors(mask, pktCount) > 0 {
									wantStale++
								}
							}
						}
						wantReceived := n - wantDropped
						wantSkipped := wantReceived < quorum || wantReceived < minWorkers
						sr, err := cl.Step()
						if err != nil {
							t.Fatal(err)
						}
						if sr.DroppedStale != wantDropped || sr.AdmittedStale != wantStale {
							t.Fatalf("step %d: counters stale=%d dropped=%d, schedules say %d/%d",
								s, sr.AdmittedStale, sr.DroppedStale, wantStale, wantDropped)
						}
						if sr.Received != wantReceived {
							t.Fatalf("step %d: received %d, schedules say %d", s, sr.Received, wantReceived)
						}
						if sr.Skipped != wantSkipped {
							t.Fatalf("step %d: skipped=%v with %d received (quorum %d, %s needs %d)",
								s, sr.Skipped, sr.Received, quorum, ruleName, minWorkers)
						}
						staleTotal += sr.AdmittedStale
						droppedTotal += sr.DroppedStale
						if !sr.Skipped {
							aggregated++
						}
					}
					if staleTotal == 0 || droppedTotal == 0 {
						t.Fatalf("schedule admitted %d stale / dropped %d over %d steps; matrix ran vacuously",
							staleTotal, droppedTotal, steps)
					}
					params := cl.Params()
					if !params.IsFinite() {
						t.Fatalf("%s let non-finite parameters through under %s with τ=%d", ruleName, atk, tau)
					}
					model := factory()
					model.SetParamsVector(params)
					if acc := model.Accuracy(test.X, test.Y); acc < 0.7 {
						t.Fatalf("%s under %s with τ=%d converged to accuracy %v after %d aggregating rounds",
							ruleName, atk, tau, acc, aggregated)
					}
				})
			}
		}
	}
}

// TestAsyncClusterConstructorGating: both socket constructors must reject the
// configurations the async design cannot honour — informed attacks alongside
// a slow-worker schedule (the omniscient oracle assumes fresh peers), invalid
// async parameters, and (UDP only) composing the slow schedule with lossy
// model broadcasts.
func TestAsyncClusterConstructorGating(t *testing.T) {
	train, _, factory := asyncFixture()
	tcpCfg := func(async ps.AsyncConfig, byz map[int]string) TCPClusterConfig {
		return TCPClusterConfig{
			Addr: "127.0.0.1:0", ModelFactory: factory, Workers: 7,
			GAR: gar.Median{}, Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
			Batch: 32, Train: train, Byzantine: byz, Seed: 13, Async: async,
		}
	}
	udpCfg := func(async ps.AsyncConfig, byz map[int]string) UDPClusterConfig {
		return UDPClusterConfig{
			Addr: "127.0.0.1:0", ModelFactory: factory, Workers: 7,
			GAR: gar.Median{}, Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
			Batch: 32, Train: train, Byzantine: byz, Seed: 13, Async: async,
		}
	}
	both := func(name string, async ps.AsyncConfig, byz map[int]string, wantOK bool) {
		t.Helper()
		_, errTCP := NewTCPCluster(tcpCfg(async, byz))
		_, errUDP := NewUDPCluster(udpCfg(async, byz))
		if wantOK && (errTCP != nil || errUDP != nil) {
			t.Errorf("%s: unexpectedly rejected (tcp: %v, udp: %v)", name, errTCP, errUDP)
		}
		if !wantOK && (errTCP == nil || errUDP == nil) {
			t.Errorf("%s: accepted by tcp=%v udp=%v, want both to reject", name, errTCP == nil, errUDP == nil)
		}
	}
	slow := ps.AsyncConfig{Quorum: 5, Staleness: 2, SlowRate: 0.3}
	both("valid slow schedule", slow, nil, true)
	both("informed attack with slow schedule", slow, map[int]string{6: "little-is-enough"}, false)
	both("informed attack with quorum only", ps.AsyncConfig{Quorum: 5}, map[int]string{6: "little-is-enough"}, true)
	both("non-informed attack with slow schedule", slow, map[int]string{6: "reversed"}, true)
	both("quorum above n", ps.AsyncConfig{Quorum: 8}, nil, false)
	both("slow rate without staleness", ps.AsyncConfig{Quorum: 5, SlowRate: 0.3}, nil, false)

	cfg := udpCfg(slow, nil)
	cfg.ModelDropRate = 0.1
	cfg.StaleModels = true
	if _, err := NewUDPCluster(cfg); err == nil {
		t.Error("UDP accepted a slow schedule composed with lossy model broadcasts")
	}
}
