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
func TestChurnRoundCostIndependentOfStep(t *testing.T) {
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
			mallocs(100)
			early := mallocs(200)
			mallocs(1900)
			late := mallocs(2000)
			if late > 1.1*early {
				t.Fatalf("rounds 1900-2000 allocate %.0f objects a round, rounds 100-200 %.0f: the cost of a round grows with the step", late, early)
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
