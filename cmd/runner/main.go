// Command runner launches one training session, mirroring the original
// AggregaThor runner.py command line:
//
//	go run ./cmd/runner \
//	  --experiment features-mlp --aggregator multi-krum --nb-workers 19 \
//	  --f 4 --optimizer rmsprop --learning-rate 0.001 --batch-size 100 \
//	  --max-step 200 --evaluation-delta 20
//
// -backend tcp|udp runs the same session over real localhost sockets
// (every model broadcast and gradient on the wire); simulator-only flags are
// then rejected:
//
//	go run ./cmd/runner -backend tcp -nb-workers 5 -f 1 -max-step 20
//	go run ./cmd/runner -backend udp -nb-workers 5 -f 1 -max-step 20 -drop-rate 0.1
//
// Pass --aggregator "" or --experiment "" to list the available choices
// (matching the original tool's behaviour).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"aggregathor/internal/attack"
	"aggregathor/internal/core"
	"aggregathor/internal/gar"
	"aggregathor/internal/opt"
	"aggregathor/internal/simnet"
	"aggregathor/internal/transport"
)

func main() {
	var (
		experiment = flag.String("experiment", "features-mlp", "model+dataset preset (empty to list)")
		backend    = flag.String("backend", core.BackendInProcess, "deployment: in-process|tcp|udp")
		aggregator = flag.String("aggregator", "multi-krum", "gradient aggregation rule (empty to list; 'draco' and 'tf' also accepted)")
		nbWorkers  = flag.Int("nb-workers", 19, "number of workers n")
		declaredF  = flag.Int("f", 4, "declared Byzantine tolerance f")
		optimizer  = flag.String("optimizer", "rmsprop", "update rule")
		lr         = flag.Float64("learning-rate", 1e-3, "initial learning rate")
		batch      = flag.Int("batch-size", 100, "per-worker mini-batch size")
		maxStep    = flag.Int("max-step", 200, "number of model updates")
		evalDelta  = flag.Int("evaluation-delta", 20, "steps between accuracy evaluations")
		l1         = flag.Float64("l1-regularize", 0, "L1 regularisation weight")
		l2         = flag.Float64("l2-regularize", 0, "L2 regularisation weight")
		attackSpec = flag.String("attack", "", "worker attacks as id:name[,id:name...] (empty to list names with 'list')")
		corrupt    = flag.String("corrupt-data", "", "comma-separated worker ids with poisoned samplers")
		vanilla    = flag.Bool("vanilla", false, "run the unpatched (vulnerable) server")
		hijack     = flag.String("hijack", "", "comma-separated worker ids attempting remote parameter writes")
		udpLinks   = flag.Int("udp-links", 0, "number of worker links over lossy UDP")
		dropRate   = flag.Float64("drop-rate", 0, "artificial packet drop probability on UDP links")
		recoup     = flag.String("recoup", "fill-random", "lost-coordinate policy: drop-gradient|fill-nan|fill-random")
		udpClock   = flag.Bool("udp-clock", false, "cost the network as UDP instead of TCP")
		seed       = flag.Int64("seed", 1, "experiment seed")
		measureAgg = flag.Bool("measure-agg", false, "measure real GAR wall time for the simulated clock")
		replicas   = flag.Int("server-replicas", 1, "state-machine-replicate the parameter server (>1 enables the §6 extension)")
		byzReps    = flag.String("byzantine-replicas", "", "comma-separated lying server replica ids")
		ckptPath   = flag.String("checkpoint", "", "checkpoint file path (resumes if present)")
		ckptEvery  = flag.Int("checkpoint-period", 0, "steps between checkpoints (0 = final only)")
	)
	flag.Parse()

	if *experiment == "" {
		fmt.Println("available experiments:")
		for _, e := range core.Experiments() {
			fmt.Printf("  %s (cost dim %d)\n", e.Name, e.CostDim)
		}
		return
	}
	if *aggregator == "" {
		fmt.Printf("available aggregators: %s (plus: draco, tf)\n", strings.Join(gar.Names(), ", "))
		return
	}
	if *attackSpec == "list" {
		fmt.Printf("available attacks: %s\n", strings.Join(attack.Names(), ", "))
		fmt.Printf("available optimizers: %s\n", strings.Join(opt.Names(), ", "))
		return
	}

	attacks, err := parseAttacks(*attackSpec)
	if err != nil {
		fatal(err)
	}
	policy, err := parseRecoup(*recoup)
	if err != nil {
		fatal(err)
	}
	proto := simnet.TCP
	if *udpClock {
		proto = simnet.UDP
	}
	cfg := core.Config{
		Experiment: *experiment,
		Backend:    *backend,
		Aggregator: *aggregator,
		F:          *declaredF,
		Workers:    *nbWorkers,
		Batch:      *batch,
		Optimizer:  *optimizer,
		LR:         *lr,
		L1:         *l1,
		L2:         *l2,
		Steps:      *maxStep,
		EvalEvery:  *evalDelta,
		Attacks:    attacks,
		Vanilla:    *vanilla,
		UDPLinks:   *udpLinks,
		DropRate:   *dropRate,
		Recoup:     policy,
		Protocol:   proto,
		Seed:       *seed,
		MeasureAgg: *measureAgg,
	}
	if cfg.CorruptData, err = parseIDs(*corrupt); err != nil {
		fatal(err)
	}
	if cfg.HijackWorkers, err = parseIDs(*hijack); err != nil {
		fatal(err)
	}
	cfg.ServerReplicas = *replicas
	if cfg.ByzantineReplicas, err = parseIDs(*byzReps); err != nil {
		fatal(err)
	}
	cfg.CheckpointPath = *ckptPath
	cfg.CheckpointEvery = *ckptEvery

	fmt.Printf("experiment=%s backend=%s aggregator=%s n=%d f=%d optimizer=%s lr=%g batch=%d steps=%d\n",
		cfg.Experiment, cfg.Backend, cfg.Aggregator, cfg.Workers, cfg.F, cfg.Optimizer, cfg.LR, cfg.Batch, cfg.Steps)
	res, err := core.Run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-10s %-12s %-10s %-10s\n", "sim_time", "step", "accuracy", "loss")
	for i, p := range res.AccuracyVsStep.Points {
		loss := 0.0
		if i < len(res.LossVsStep.Points) {
			loss = res.LossVsStep.Points[i].Value
		}
		fmt.Printf("%-10.1f %-12d %-10.4f %-10.4f\n", p.Time.Seconds(), p.Step, p.Value, loss)
	}
	fmt.Printf("final accuracy: %.4f\n", res.FinalAccuracy)
	fmt.Printf("throughput: %.2f gradients/s (%.2f updates/s)\n",
		res.Throughput.GradientsPerSecond(), res.Throughput.BatchesPerSecond())
	fmt.Printf("latency breakdown: compute+comm %.3fs, aggregation %.3fs (%.0f%% share)\n",
		res.Breakdown.ComputeComm.Seconds(), res.Breakdown.Aggregation.Seconds(),
		res.Breakdown.AggregationShare()*100)
	if res.SkippedRounds > 0 {
		fmt.Printf("skipped rounds (quorum lost): %d\n", res.SkippedRounds)
	}
	if res.Hijacked {
		fmt.Println("WARNING: a Byzantine worker overwrote the parameters (vanilla mode)")
	}
	if res.Diverged {
		fmt.Println("WARNING: training diverged (non-finite parameters)")
	}
	if res.ResumedFromStep > 0 {
		fmt.Printf("resumed from checkpointed step %d\n", res.ResumedFromStep)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "runner:", err)
	os.Exit(1)
}

func parseAttacks(spec string) (map[int]string, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[int]string{}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(part, ":", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad attack spec %q (want id:name)", part)
		}
		id, err := strconv.Atoi(strings.TrimSpace(kv[0]))
		if err != nil {
			return nil, fmt.Errorf("bad worker id in %q: %w", part, err)
		}
		out[id] = strings.TrimSpace(kv[1])
	}
	return out, nil
}

func parseIDs(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(spec, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad worker id %q: %w", part, err)
		}
		out = append(out, id)
	}
	return out, nil
}

func parseRecoup(name string) (transport.RecoupPolicy, error) {
	switch name {
	case "drop-gradient":
		return transport.DropGradient, nil
	case "fill-nan":
		return transport.FillNaN, nil
	case "fill-random":
		return transport.FillRandom, nil
	default:
		return 0, fmt.Errorf("unknown recoup policy %q", name)
	}
}
