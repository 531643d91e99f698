// Lossy networking: training over UDP links that drop packets, comparing
// the three §3.3 recoup strategies and the TCP-vs-UDP clock — the Figure 8
// story, plus a real-socket demonstration of the lossyMPI endpoints.
//
//	go run ./examples/lossy
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"aggregathor"
	"aggregathor/internal/simnet"
	"aggregathor/internal/transport"
)

func main() {
	trainingComparison()
	modelLossComparison()
	rawSocketsDemo()
}

// modelLossComparison trains over the real udp backend with 10% scheduled
// loss on the server→worker model broadcasts (footnote 12's unreliable model
// channel), comparing the two torn-broadcast recoup policies under the
// strict drop-gradient uplink recoup: with skip, a torn worker sits the
// round out and most rounds fall below multi-krum's quorum; with stale, the
// torn workers train on their last complete model and the server accepts
// the stale-tagged gradients, keeping nearly every round aggregating.
func modelLossComparison() {
	fmt.Println("== lossy model broadcasts over real UDP sockets (10% downlink drop) ==")
	fmt.Printf("%-34s %10s %8s %8s\n", "configuration", "final_acc", "stale", "skipped")
	for _, cfg := range []struct {
		label string
		stale bool
	}{
		{"multi-krum + skip torn rounds", false},
		{"multi-krum + stale-model recoup", true},
	} {
		res, err := aggregathor.Run(aggregathor.Config{
			Experiment:    "features-mlp",
			Backend:       "udp",
			Aggregator:    "multi-krum",
			F:             1,
			Workers:       7,
			Optimizer:     "momentum",
			LR:            0.1,
			Batch:         32,
			Steps:         150,
			EvalEvery:     50,
			Seed:          11,
			Recoup:        transport.DropGradient,
			ModelDropRate: 0.10,
			StaleModels:   cfg.stale,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %10.3f %8d %8d\n", cfg.label, res.FinalAccuracy, res.StaleGradients, res.SkippedRounds)
	}
	fmt.Println("(both endpoints evaluate the same ps.ModelDropSeed schedule, so lossy-model")
	fmt.Println(" rounds are deterministic and deadline-free; stale recoup trades staleness —")
	fmt.Println(" which the Byzantine-resilient GAR must absorb — for round liveness)")
	fmt.Println()
}

// trainingComparison trains over 8 lossy UDP links at a 10% artificial drop
// rate under each recoup policy.
func trainingComparison() {
	fmt.Println("== training over lossy UDP links (10% drop, 8 of 19 links) ==")
	fmt.Printf("%-34s %10s %12s\n", "configuration", "final_acc", "sim_time_s")
	for _, cfg := range []struct {
		label  string
		agg    string
		f      int
		recoup transport.RecoupPolicy
		proto  simnet.Protocol
	}{
		{"TCP/gRPC + averaging", "tf", 0, transport.DropGradient, simnet.TCP},
		{"UDP + drop-whole-gradient", "average", 0, transport.DropGradient, simnet.UDP},
		{"UDP + selective average (NaN)", "selective-average", 0, transport.FillNaN, simnet.UDP},
		{"UDP + multi-krum (random fill)", "multi-krum", 8, transport.FillRandom, simnet.UDP},
	} {
		res, err := aggregathor.Run(aggregathor.Config{
			Experiment: "features-mlp",
			Aggregator: cfg.agg,
			F:          cfg.f,
			Workers:    19,
			Optimizer:  "momentum",
			LR:         0.1,
			Batch:      100,
			Steps:      150,
			EvalEvery:  50,
			Seed:       11,
			UDPLinks:   8,
			DropRate:   0.10,
			Recoup:     cfg.recoup,
			Protocol:   cfg.proto,
		})
		if err != nil {
			log.Fatal(err)
		}
		last, _ := res.AccuracyVsTime.Last()
		fmt.Printf("%-34s %10.3f %12.1f\n", cfg.label, res.FinalAccuracy, last.Time.Seconds())
	}
	fmt.Println("(the robust GAR tolerates lost coordinates while keeping the fast UDP clock)")
	fmt.Println()
}

// rawSocketsDemo pushes one gradient through the real lossy UDP endpoints on
// localhost with a 20% artificial drop and shows the recoup at the receiver.
func rawSocketsDemo() {
	fmt.Println("== raw lossyMPI endpoints on localhost (20% artificial drop) ==")
	codec := transport.Codec{Float32: true}
	recv, err := transport.ListenUDP("127.0.0.1:0", codec, transport.FillNaN, 1)
	if err != nil {
		log.Fatal(err)
	}
	defer recv.Close()
	send, err := transport.DialUDP(recv.Addr(), codec, 512, 0.20, 2)
	if err != nil {
		log.Fatal(err)
	}
	defer send.Close()

	rng := rand.New(rand.NewSource(3))
	grad := make([]float64, 10_000)
	for i := range grad {
		grad[i] = rng.NormFloat64()
	}
	if err := send.SendGradient(&transport.GradientMsg{Worker: 2, Step: 9, Grad: grad}); err != nil {
		log.Fatal(err)
	}
	msg, err := recv.RecvGradient(500 * time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	lost := msg.Grad.CountNonFinite()
	fmt.Printf("sent 10000 coordinates over UDP; receiver recouped %d lost coordinates as NaN (%.1f%%)\n",
		lost, 100*float64(lost)/float64(len(msg.Grad)))
	fmt.Println("(a NaN-tolerant GAR — selective average or any robust rule — absorbs these)")
}
