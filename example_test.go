package aggregathor_test

import (
	"fmt"

	"aggregathor"
)

// Aggregating worker gradients with a robust rule: the Byzantine outlier
// cannot drag the result.
func ExampleAggregate() {
	grads := [][]float64{
		{1.0, 2.0},
		{1.1, 1.9},
		{0.9, 2.1},
		{1.0, 2.0},
		{0.95, 2.05},
		{1e9, -1e9}, // Byzantine
		{1.05, 1.95},
	}
	out, err := aggregathor.Aggregate("median", 1, grads)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%.2f %.2f\n", out[0], out[1])
	// Output: 1.00 2.00
}

// MULTI-KRUM selection: the m best-scoring gradients, never the far outlier.
func ExampleMultiKrumSelect() {
	grads := [][]float64{
		{1.0}, {1.1}, {0.9}, {1.05}, {0.95}, {1.02}, {50.0},
	}
	selected, err := aggregathor.MultiKrumSelect(1, 3, grads)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	outlierPicked := false
	for _, idx := range selected {
		if idx == 6 {
			outlierPicked = true
		}
	}
	fmt.Println(len(selected), outlierPicked)
	// Output: 3 false
}

// Training with Byzantine-resilient aggregation: 19 workers, 4 of which could
// be Byzantine (none are, here), exactly the paper's evaluation cluster.
// MULTI-KRUM gives weak Byzantine resilience; "bulyan" gives strong
// resilience. Accuracy is read against the simulated cluster clock.
func ExampleRun() {
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
		fmt.Println("error:", err)
		return
	}
	fmt.Println("step   sim-time   accuracy")
	for _, p := range res.Accuracy.Points {
		fmt.Printf("%4d   %7.1fs   %.3f\n", p.Step, p.Time.Seconds(), p.Value)
	}
	fmt.Printf("final accuracy: %.3f\n", res.FinalAccuracy)
	fmt.Printf("aggregation share of each round: %.0f%%\n", res.Breakdown.AggregationShare()*100)

	// The GARs are also usable standalone on plain [][]float64 gradients.
	agg, err := aggregathor.Aggregate("multi-krum", 1, [][]float64{
		{1.0, 2.0}, {1.1, 1.9}, {0.9, 2.1}, {1.0, 2.05}, {0.95, 2.0},
		{1.05, 1.95}, {1e9, -1e9}, // one Byzantine gradient
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("standalone multi-krum over 7 gradients (1 Byzantine): %v\n", agg)
	// Output:
	// step   sim-time   accuracy
	//    0       0.0s   0.055
	//   15      13.3s   0.160
	//   30      26.5s   0.280
	//   45      39.8s   0.315
	//   60      53.0s   0.450
	//   75      66.3s   0.530
	//   90      79.5s   0.520
	//  105      92.8s   0.525
	//  120     106.0s   0.565
	//  135     119.3s   0.610
	//  150     132.5s   0.610
	// final accuracy: 0.610
	// aggregation share of each round: 31%
	// standalone multi-krum over 7 gradients (1 Byzantine): [1 2]
}

// The replicated parameter server, the paper's §6 extension that removes the
// trusted-server assumption: four deterministic server replicas run the same
// GAR and optimizer in lockstep, and workers adopt the model more than 2/3 of
// them endorse. Correct replicas stay bit-identical because the server
// computation is deterministic, so one lying replica changes nothing. Two
// Byzantine replicas of four are refused (R ≥ 3b+1 is required).
func ExampleRun_replicatedServer() {
	for _, cfg := range []struct {
		label       string
		byzReplicas []int
	}{
		{"all replicas honest", nil},
		{"replica 2 lies every step", []int{2}},
	} {
		res, err := aggregathor.Run(aggregathor.Config{
			Experiment:        "features-mlp",
			Aggregator:        "multi-krum",
			F:                 1,
			Workers:           7,
			Optimizer:         "momentum",
			LR:                0.1,
			Batch:             64,
			Steps:             150,
			EvalEvery:         50,
			Seed:              5,
			ServerReplicas:    4,
			ByzantineReplicas: cfg.byzReplicas,
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%-28s final accuracy %.3f\n", cfg.label, res.FinalAccuracy)
	}
	// Output:
	// all replicas honest          final accuracy 0.640
	// replica 2 lies every step    final accuracy 0.640
}

// A campaign sweeps GAR × attack × cluster × network cells; this one trims
// the built-in smoke campaign to two rules, two attacks and the in-process
// network. Averaging collapses under the reversed-gradient attack, the
// median does not.
func ExampleRunCampaign() {
	spec := aggregathor.SmokeCampaignSpec()
	spec.GARs = []string{"average", "median"}
	spec.Attacks = []string{"none", "reversed"}
	spec.Networks = spec.Networks[:1]
	spec.Steps = 30
	campaign, err := aggregathor.RunCampaign(spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, r := range campaign.Results {
		fmt.Printf("%-40s final accuracy %.3f\n", r.Run.ID, r.FinalAccuracy)
	}
	// Output:
	// average/none/n11-f2/in-process/seed1     final accuracy 0.210
	// average/reversed/n11-f2/in-process/seed1 final accuracy 0.055
	// median/none/n11-f2/in-process/seed1      final accuracy 0.185
	// median/reversed/n11-f2/in-process/seed1  final accuracy 0.180
}
