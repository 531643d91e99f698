// Command deploy mirrors the original deploy.py tool: it takes a cluster
// specification (job → task addresses), validates it, prints the device
// allocation for a training graph, and can optionally run a real
// socket-distributed training session on localhost to exercise the wire
// protocol end to end:
//
//	go run ./cmd/deploy --spec '{"ps":["127.0.0.1:7000"],"workers":["127.0.0.1:7001","127.0.0.1:7002"]}'
//	go run ./cmd/deploy --run --nb-workers 5 --max-step 100
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"aggregathor/internal/cluster"
	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
)

func main() {
	var (
		spec      = flag.String("spec", `{"ps":["127.0.0.1:7000"],"workers":["127.0.0.1:7001"]}`, "cluster spec JSON (job -> task addresses)")
		policy    = flag.String("placement", "round-robin", "device placement policy: round-robin|prefer-gpu")
		workers   = flag.Int("nb-workers", 4, "worker replicas to allocate")
		doRun     = flag.Bool("run", false, "run a TCP-distributed training session on localhost")
		aggName   = flag.String("aggregator", "multi-krum", "GAR for --run")
		declaredF = flag.Int("f", 1, "Byzantine tolerance for --run")
		steps     = flag.Int("max-step", 100, "training steps for --run")
		batch     = flag.Int("batch-size", 32, "mini-batch size for --run")
		seed      = flag.Int64("seed", 1, "seed")
	)
	flag.Parse()

	s, err := cluster.ParseSpec(*spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cluster: jobs %v\n", s.JobNames())

	var pp cluster.PlacementPolicy
	switch *policy {
	case "round-robin":
		pp = &cluster.RoundRobin{}
	case "prefer-gpu":
		pp = cluster.PreferGPU{}
	default:
		fatal(fmt.Errorf("unknown placement policy %q", *policy))
	}
	alloc, err := cluster.Allocate(s, pp, *workers, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Println("device allocation:")
	for _, op := range []string{"variables", "aggregation", "apply_gradient", "accuracy"} {
		fmt.Printf("  %-24s -> %s\n", op, alloc[op])
	}
	for w := 0; w < *workers; w++ {
		op := fmt.Sprintf("worker_%d/gradient", w)
		fmt.Printf("  %-24s -> %s\n", op, alloc[op])
	}

	if !*doRun {
		return
	}
	fmt.Printf("\nrunning TCP-distributed training: n=%d aggregator=%s f=%d steps=%d\n",
		*workers, *aggName, *declaredF, *steps)
	ds := data.SyntheticFeatures(1200, 24, 10, *seed)
	ds.MinMaxScale()
	train, test := ds.Split(5.0 / 6.0)
	factory := func() *nn.Network {
		return nn.NewMLP(24, []int{48}, 10, rand.New(rand.NewSource(*seed)))
	}
	rule, err := gar.New(*aggName, *declaredF)
	if err != nil {
		fatal(err)
	}
	cl, err := cluster.NewTCPCluster(cluster.TCPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: factory,
		Workers:      *workers,
		GAR:          rule,
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}, Momentum: 0.9},
		Batch:        *batch,
		Train:        train,
		Seed:         *seed,
	})
	if err != nil {
		fatal(err)
	}
	if err := cl.Start(); err != nil {
		fatal(err)
	}
	defer cl.Close()
	for step := 0; step < *steps; step++ {
		if _, err := cl.Step(); err != nil {
			fatal(err)
		}
	}
	params := cl.Params()
	model := factory()
	model.SetParamsVector(params)
	fmt.Printf("trained over real sockets; test accuracy: %.4f\n", model.Accuracy(test.X, test.Y))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "deploy:", err)
	os.Exit(1)
}
