// Lossy networking: training over UDP links that drop packets, comparing
// the three §3.3 recoup strategies and the TCP-vs-UDP clock — the Figure 8
// story, plus training over the real lossy udp backend.
//
//	go run ./examples/lossy
package main

import (
	"fmt"
	"log"
	"time"

	"aggregathor"
	"aggregathor/internal/simnet"
	"aggregathor/internal/transport"
)

func main() {
	trainingComparison()
	modelLossComparison()
	udpLossDemo()
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
		last, _ := res.Accuracy.Last()
		fmt.Printf("%-34s %10.3f %12.1f\n", cfg.label, res.FinalAccuracy, last.Time.Seconds())
	}
	fmt.Println("(the robust GAR tolerates lost coordinates while keeping the fast UDP clock)")
	fmt.Println()
}

// udpLossDemo trains over the real udp backend with 20% scheduled loss on
// every uplink: the server fills the coordinates each worker's lost packets
// carried with NaN, and selective averaging ignores them coordinate by
// coordinate.
func udpLossDemo() {
	fmt.Println("== real UDP sockets on localhost (20% uplink drop) ==")
	start := time.Now()
	res, err := aggregathor.Run(aggregathor.Config{
		Experiment: "features-mlp",
		Backend:    "udp",
		Aggregator: "selective-average",
		Workers:    7,
		Optimizer:  "momentum",
		LR:         0.1,
		Batch:      32,
		Steps:      60,
		EvalEvery:  20,
		Seed:       11,
		DropRate:   0.20,
		Recoup:     transport.FillNaN,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("60 rounds in %.1fs: final_acc %.3f, %d rounds skipped\n",
		time.Since(start).Seconds(), res.FinalAccuracy, res.SkippedRounds)
	fmt.Println("(both endpoints evaluate the same ps.DropSeed schedule, so the lost packets")
	fmt.Println(" — and the run — are reproducible; a NaN-tolerant GAR absorbs the holes)")
}
