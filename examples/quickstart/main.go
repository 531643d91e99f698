// Quickstart: train a model with Byzantine-resilient aggregation in a few
// lines — the README's two-minute path.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"aggregathor"
)

func main() {
	// 19 workers, 4 of which could be Byzantine (none are, here), exactly
	// the paper's evaluation cluster. MULTI-KRUM gives weak Byzantine
	// resilience; swap in "bulyan" for strong resilience.
	res, err := aggregathor.Run(aggregathor.Config{
		Experiment: "features-mlp",
		Aggregator: "multi-krum",
		Workers:    19,
		F:          4,
		Optimizer:  "momentum",
		LR:         0.1,
		Batch:      100,
		Steps:      150,
		EvalEvery:  15,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("step   sim-time   accuracy")
	for _, p := range res.Accuracy.Points {
		fmt.Printf("%4d   %7.1fs   %.3f\n", p.Step, p.Time.Seconds(), p.Value)
	}
	fmt.Printf("\nfinal accuracy: %.3f\n", res.FinalAccuracy)
	fmt.Printf("aggregation share of each round: %.0f%%\n", res.Breakdown.AggregationShare()*100)

	// The GARs are also usable standalone on plain [][]float64 gradients.
	agg, err := aggregathor.Aggregate("multi-krum", 1, [][]float64{
		{1.0, 2.0}, {1.1, 1.9}, {0.9, 2.1}, {1.0, 2.05}, {0.95, 2.0},
		{1.05, 1.95}, {1e9, -1e9}, // one Byzantine gradient
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstandalone multi-krum over 7 gradients (1 Byzantine): %v\n", agg)
}
