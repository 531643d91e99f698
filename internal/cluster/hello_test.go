package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// helloDeployment builds a small 5-worker TCP cluster, with or without a
// churn schedule.
func helloDeployment(t *testing.T, churn ps.ChurnConfig) *TCPCluster {
	t.Helper()
	ds := data.SyntheticFeatures(120, 6, 3, 9)
	ds.MinMaxScale()
	cl, err := NewTCPCluster(TCPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: func() *nn.Network { return nn.NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(10))) },
		Workers:      5,
		GAR:          gar.Average{},
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:        8,
		Train:        ds,
		Churn:        churn,
		Seed:         21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// closeWithin calls Close and fails the test when it does not return within
// d, or returns an error.
func closeWithin(t *testing.T, cl *TCPCluster, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cl.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(d):
		t.Fatalf("Close still blocked after %v", d)
	}
}

// TestTCPClusterCloseWithSilentConnection is the hostile-socket regression
// for a connection that never says hello: one that sends nothing, and one
// that sends three bytes of a length prefix and stalls. Each used to leave a
// goroutine blocked reading the hello that Close waited for (under churn,
// forever). The accept loop owns every connection it accepted and closes
// them when Close releases the listener, so Close returns and every
// goroutine the cluster started is gone.
func TestTCPClusterCloseWithSilentConnection(t *testing.T) {
	for _, churn := range []ps.ChurnConfig{{}, {Rate: 0.05, DownSteps: 2, MaxRejoins: 2}} {
		for _, opening := range []struct {
			name  string
			bytes []byte
		}{{"silent", nil}, {"stalled-prefix", []byte{0x10, 0, 0}}} {
			t.Run(fmt.Sprintf("%s/churn=%v", opening.name, churn.Enabled()), func(t *testing.T) {
				defer releaseCheck(t)("beside a connection that never says hello")
				cl := helloDeployment(t, churn)
				if err := cl.Start(); err != nil {
					t.Fatal(err)
				}
				raw, err := net.Dial("tcp", cl.ln.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer raw.Close()
				if _, err := raw.Write(opening.bytes); err != nil {
					t.Fatal(err)
				}
				// Rounds run beside the silent connection; by their end the
				// accept loop has long since taken it off the backlog.
				for i := 0; i < 3; i++ {
					if _, err := cl.Step(); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
				time.Sleep(20 * time.Millisecond)
				closeWithin(t, cl, 5*time.Second)
			})
		}
	}
}

// TestTCPClusterStrayHelloWithoutChurn: a hello naming worker 1 on a cluster
// with no churn schedule reaches Round.Rejoin through the always-on accept
// loop. It is a rejoin no schedule placed: the Step that reads it fails with
// reject-wrong-tag, nothing panics, and Close is clean.
func TestTCPClusterStrayHelloWithoutChurn(t *testing.T) {
	defer releaseCheck(t)("over a stray hello")
	cl := helloDeployment(t, ps.ChurnConfig{})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := transport.DialTCP(cl.ln.Addr(), cl.cfg.Codec)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SendGradient(&transport.GradientMsg{Worker: 1, Loss: 1, Grad: tensor.NewVector(helloDim)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		_, err := cl.Step()
		if err != nil {
			if !strings.Contains(err.Error(), ps.RejectWrongTag.String()) {
				t.Fatalf("step %d failed with %v, want %v", i, err, ps.RejectWrongTag)
			}
			break
		}
		if i == 50 {
			t.Fatal("50 rounds ran past the stray hello")
		}
	}
	closeWithin(t, cl, 5*time.Second)
}

// TestTCPClusterHelloDialCountMustBeSane: a hello's dial count travels as a
// float64 in its Loss field. At a scheduled rejoin, a hello for that worker
// and round whose count is not an integer in range — NaN, ±Inf, 1e300, 2.5
// — fails the Step at that round with reject-malformed, on every platform,
// instead of being converted into the run's reconnect attempts.
func TestTCPClusterHelloDialCountMustBeSane(t *testing.T) {
	churn := ps.ChurnConfig{Rate: 0.2, DownSteps: 1, MaxRejoins: 1}
	const workers, seed = 5, 21
	rejoinStep, rejoinWorker := -1, -1
	for s := 1; rejoinStep < 0 && s < 50; s++ {
		for w := 0; w < workers; w++ {
			if churn.Phase(seed, s, w) == ps.ChurnRejoin {
				rejoinStep, rejoinWorker = s, w
				break
			}
		}
	}
	if rejoinStep < 0 {
		t.Fatal("dead fixture: no rejoin within 50 steps")
	}
	for _, loss := range []float64{math.NaN(), math.Inf(1), 1e300, 2.5} {
		t.Run(fmt.Sprint(loss), func(t *testing.T) {
			defer releaseCheck(t)("over a malformed hello")
			cl := helloDeployment(t, churn)
			if err := cl.Start(); err != nil {
				t.Fatal(err)
			}
			conn, err := transport.DialTCP(cl.ln.Addr(), cl.cfg.Codec)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.SendGradient(&transport.GradientMsg{Worker: rejoinWorker, Step: rejoinStep, Loss: loss, Grad: tensor.NewVector(helloDim)}); err != nil {
				t.Fatal(err)
			}
			// The forged hello enters the inbox before any round runs, so it
			// is stashed ahead of the real worker's and offered first.
			for deadline := time.Now().Add(5 * time.Second); len(cl.inbox) == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the forged hello never reached the inbox")
				}
			}
			for step := 0; ; step++ {
				_, err := cl.Step()
				if err == nil && step < rejoinStep {
					continue
				}
				if step != rejoinStep || err == nil || !strings.Contains(err.Error(), ps.RejectMalformed.String()) {
					t.Fatalf("step %d (rejoin at %d) returned %v, want %v", step, rejoinStep, err, ps.RejectMalformed)
				}
				break
			}
			closeWithin(t, cl, 5*time.Second)
		})
	}
}

// TestTCPDeliverRefusesGradientTaggedForAnotherSlot: a connection speaks for
// the slot its hello named. A gradient on worker 2's connection tagged as
// worker 3 is a lying frame and fails loudly, and slot 3 stays open for
// worker 3's own connection.
func TestTCPDeliverRefusesGradientTaggedForAnotherSlot(t *testing.T) {
	cl := helloDeployment(t, ps.ChurnConfig{})
	round := cl.eng.Begin()
	two, three := &tcpPeer{worker: 2}, &tcpPeer{worker: 3}
	cl.peers = []*tcpPeer{two, three}
	grad := func() transport.GradientMsg {
		return transport.GradientMsg{Worker: 3, Grad: tensor.NewVector(cl.Model().NumParams())}
	}
	open := round.Outstanding()
	if err := cl.deliver(round, recvEvent{peer: two, msg: grad()}); err == nil {
		t.Fatal("a gradient tagged as worker 3 on worker 2's connection was accepted")
	}
	if n := round.Outstanding(); n != open {
		t.Fatalf("the lying frame moved the round: %d slots outstanding, %d before", n, open)
	}
	if err := cl.deliver(round, recvEvent{peer: three, msg: grad()}); err != nil {
		t.Fatalf("worker 3's own gradient after the lying frame: %v", err)
	}
	if n := round.Outstanding(); n != open-1 {
		t.Fatalf("worker 3's own gradient left %d slots outstanding, want %d", n, open-1)
	}
}
