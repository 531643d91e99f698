package cluster

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/transport"
)

// churnCostConfig is a small churn deployment whose membership is stationary
// (the rejoin budget never runs out), so every stretch of rounds does the same
// work.
func churnCostConfig(seed int64) UDPClusterConfig {
	return UDPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: func() *nn.Network { return nn.NewMLP(6, []int{4}, 3, rand.New(rand.NewSource(2))) },
		Workers:      7,
		GAR:          gar.Average{},
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.01}},
		Batch:        4,
		Train:        data.SyntheticFeatures(80, 6, 3, 4),
		RoundTimeout: 5 * time.Second,
		Churn:        ps.ChurnConfig{Rate: 0.03, DownSteps: 2, MaxRejoins: 1 << 30},
		Seed:         seed,
	}
}

// TestChurnRoundCostIndependentOfStep pins the incremental plan's cost on
// both socket backends: a churn round late in a run allocates what an early
// one does. When every worker replayed its crash/rejoin timeline from step 0
// at every broadcast (one rng per replayed step), rounds 1,900-2,000 allocated
// about ten times what rounds 100-200 did and a run cost O(steps²).
//
// What a round allocates also depends on the churn it carries — a reconnect
// costs a connection, a reader and a dial — and a 100-round window of this
// schedule carries anywhere from 14 to 23 crashes. So the late window is the
// first one from round 1,900 on that carries exactly the crashes, downtimes
// and rejoins of rounds 100-200, and the two compare like for like.
func TestChurnRoundCostIndependentOfStep(t *testing.T) {
	const early, window = 100, 100
	cfg := churnCostConfig(13)
	rounds := cfg.round()
	plan := ps.NewPlanner(&rounds, 1, 0, cfg.Workers)
	var phases [][4]int // phases[s][p]: workers in phase p at round s
	composition := func(from int) (n [4]int) {
		for s := from; s < from+window; s++ {
			for p := range n {
				n[p] += phases[s][p]
			}
		}
		return n
	}
	late := -1
	for s := 0; late < 0; s++ {
		var n [4]int
		for id := 0; id < cfg.Workers; id++ {
			n[plan.At(s, id).Phase]++
		}
		phases = append(phases, n)
		if from := s + 1 - window; from >= 1900 && composition(from) == composition(early) {
			late = from
		}
		if s == 4000 {
			t.Fatal("dead fixture: no window from round 1,900 on carries the churn of rounds 100-200")
		}
	}
	for _, backend := range []string{"tcp", "udp"} {
		t.Run(backend, func(t *testing.T) {
			var cl interface {
				Start() error
				Step() (*ps.StepResult, error)
				Close() error
			}
			var err error
			if backend == "tcp" {
				cl, err = NewTCPCluster(churnCostConfig(13))
			} else {
				cl, err = NewUDPCluster(churnCostConfig(13))
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Start(); err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			step := 0
			mallocs := func(upTo int) float64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				from := step
				for ; step < upTo; step++ {
					if _, err := cl.Step(); err != nil {
						t.Fatalf("round %d: %v", step, err)
					}
				}
				runtime.ReadMemStats(&after)
				return float64(after.Mallocs-before.Mallocs) / float64(upTo-from)
			}
			mallocs(early)
			first := mallocs(early + window)
			mallocs(late)
			last := mallocs(late + window)
			if last > 1.1*first {
				t.Fatalf("rounds %d-%d allocate %.1f objects a round, rounds %d-%d %.1f: the cost of a round grows with the step",
					late, late+window, last, early, early+window, first)
			}
		})
	}
}

// TestUDPClusterSpoofedFutureStepDoesNotStallWorker is the regression test for
// the hostile-datagram stall: a worker's model endpoint takes unauthenticated
// datagrams, and the step a datagram claims is a 64-bit wire field. A forged
// broadcast claiming step 2^40 (one datagram is a whole broadcast of this
// model) used to send a churn worker replaying its timeline up to that step —
// for as long as the attacker liked — before the window check could stash it;
// and once the worker's wait for a genuine broadcast timed out (an idle gap
// will do), the catch-up jump carried any worker to the forged step, lost for
// the rest of the run. Now only the collector's bounded horizon can be
// claimed: past it the forgery is refused and every round settles with
// exactly the scheduled participants, well inside the round deadline; inside
// it worker 0 is lost to the rounds up to the forged step, which costs its
// plan a bounded walk. Either way Close returns.
func TestUDPClusterSpoofedFutureStepDoesNotStallWorker(t *testing.T) {
	plain := churnCostConfig(13)
	plain.Churn = ps.ChurnConfig{}
	for _, tc := range []struct {
		name    string
		cfg     UDPClusterConfig
		timeout time.Duration
		step    int
		idle    bool // let the worker's broadcast wait run out on the forgery
		lost    bool // the forgery is admitted: worker 0 follows it
	}{
		{"churn", churnCostConfig(13), 5 * time.Second, 1 << 40, false, false},
		{"idle gap", plain, 500 * time.Millisecond, 1 << 40, true, false},
		{"churn, idle gap, inside the horizon", churnCostConfig(13), 500 * time.Millisecond, 50_000, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.RoundTimeout = tc.timeout
			cl, err := NewUDPCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Start(); err != nil {
				t.Fatal(err)
			}
			closed := make(chan error, 1)
			defer func() {
				go func() { closed <- cl.Close() }()
				select {
				case err := <-closed:
					if err != nil {
						t.Errorf("Close: %v", err)
					}
				case <-time.After(20 * time.Second):
					t.Error("Close never returned: a worker is still busy with the spoofed step")
				}
			}()
			round := func(step int) {
				want, spare := 0, 0
				for w := 0; w < cfg.Workers; w++ {
					if cfg.Churn.Phase(cfg.Seed, step, w).Participates() {
						want++
						if w == 0 && tc.lost && step >= 2 {
							spare = 1
						}
					}
				}
				begin := time.Now()
				res, err := cl.Step()
				if err != nil {
					t.Fatalf("round %d: %v", step, err)
				}
				if res.Received != want-spare || spare == 0 && time.Since(begin) >= cfg.RoundTimeout {
					t.Fatalf("round %d received %d gradients in %v, want %d of the %d scheduled participants and no deadline without a lost worker",
						step, res.Received, time.Since(begin), want-spare, want)
				}
			}
			round(0)
			round(1)

			dim := cl.Model().NumParams()
			mtu := transport.DefaultMTU
			spoofer, err := transport.DialUDP(cl.modelRecvs[0].Addr(), cfg.Codec, mtu, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer spoofer.Close()
			if dim > cfg.Codec.CoordsPerPacket(mtu) {
				t.Fatalf("a broadcast of %d parameters is more than the one datagram this test forges", dim)
			}
			spoof := []transport.Packet{{Worker: transport.ModelWorkerID, Step: tc.step, Dim: dim, Coords: make([]float64, dim)}}
			if err := spoofer.SendPackets(spoof, nil); err != nil {
				t.Fatal(err)
			}
			if tc.idle {
				time.Sleep(2 * cfg.RoundTimeout)
			}
			for step := 2; step < 5; step++ {
				round(step)
			}
		})
	}
}
