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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"aggregathor/internal/attack"
	"aggregathor/internal/core"
	"aggregathor/internal/gar"
	"aggregathor/internal/opt"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintln(os.Stderr, "runner:", err)
		os.Exit(1)
	}
}

// flags binds every runner flag to the field of cfg it sets; -attack list
// sets *listAttacks instead of cfg.Attacks.
func flags(cfg *core.Config, listAttacks *bool) *flag.FlagSet {
	fs := flag.NewFlagSet("runner", flag.ContinueOnError)
	fs.StringVar(&cfg.Experiment, "experiment", "features-mlp", "model+dataset preset (empty to list)")
	fs.StringVar(&cfg.Network.Backend, "backend", core.BackendInProcess, "deployment: in-process|tcp|udp")
	fs.StringVar(&cfg.Aggregator, "aggregator", "multi-krum", "gradient aggregation rule (empty to list; 'draco' and 'tf' also accepted)")
	fs.IntVar(&cfg.Workers, "nb-workers", 19, "number of workers n")
	fs.IntVar(&cfg.F, "f", 4, "declared Byzantine tolerance f")
	fs.StringVar(&cfg.Optimizer, "optimizer", "rmsprop", "update rule")
	fs.Float64Var(&cfg.LR, "learning-rate", 1e-3, "initial learning rate")
	fs.IntVar(&cfg.Batch, "batch-size", 100, "per-worker mini-batch size")
	fs.IntVar(&cfg.Steps, "max-step", 200, "number of model updates")
	fs.IntVar(&cfg.EvalEvery, "evaluation-delta", 20, "steps between accuracy evaluations")
	fs.Float64Var(&cfg.L1, "l1-regularize", 0, "L1 regularisation weight")
	fs.Float64Var(&cfg.L2, "l2-regularize", 0, "L2 regularisation weight")
	fs.Func("attack", "worker attacks as id:name[,id:name...] ('list' to list names)", func(spec string) (err error) {
		if *listAttacks = spec == "list"; *listAttacks {
			return nil
		}
		cfg.Attacks, err = parseAttacks(spec)
		return err
	})
	fs.Func("corrupt-data", "comma-separated worker ids with poisoned samplers", idsInto(&cfg.CorruptData))
	fs.BoolVar(&cfg.Vanilla, "vanilla", false, "run the unpatched (vulnerable) server")
	fs.Func("hijack", "comma-separated worker ids attempting remote parameter writes", idsInto(&cfg.HijackWorkers))
	fs.IntVar(&cfg.Network.UDPLinks, "udp-links", 0, "number of worker links over lossy UDP (-1 = every worker)")
	fs.Float64Var(&cfg.Network.DropRate, "drop-rate", 0, "artificial packet drop probability on UDP links")
	fs.Func("recoup", "lost-coordinate policy: drop-gradient|fill-nan|fill-random (default fill-random)", func(name string) error {
		// core parses the name: a default experiment with it is valid exactly
		// when the name is.
		cfg.Network.Recoup = name
		return core.Config{Network: core.Network{Recoup: name}}.Validate()
	})
	fs.BoolFunc("udp-clock", "cost the network as UDP instead of TCP", func(v string) error {
		udp, err := strconv.ParseBool(v)
		cfg.Network.Protocol = ""
		if udp {
			cfg.Network.Protocol = "udp"
		}
		return err
	})
	fs.Int64Var(&cfg.Seed, "seed", 1, "experiment seed")
	fs.BoolVar(&cfg.MeasureAgg, "measure-agg", false, "measure real GAR wall time for the simulated clock")
	fs.IntVar(&cfg.ServerReplicas, "server-replicas", 1, "state-machine-replicate the parameter server (>1 enables the §6 extension)")
	fs.Func("byzantine-replicas", "comma-separated lying server replica ids", idsInto(&cfg.ByzantineReplicas))
	fs.StringVar(&cfg.CheckpointPath, "checkpoint", "", "checkpoint file path (resumes if present)")
	fs.IntVar(&cfg.CheckpointEvery, "checkpoint-period", 0, "steps between checkpoints (0 = final only)")
	return fs
}

// run parses the command line args, then prints the listing it asks for or
// trains the session it describes, writing the report to w.
func run(args []string, w io.Writer) error {
	var (
		cfg         core.Config
		listAttacks bool
	)
	if err := flags(&cfg, &listAttacks).Parse(args); err != nil {
		return err
	}
	switch {
	case cfg.Experiment == "":
		fmt.Fprintln(w, "available experiments:")
		for _, e := range core.Experiments() {
			fmt.Fprintf(w, "  %s (cost dim %d)\n", e.Name, e.CostDim)
		}
		return nil
	case cfg.Aggregator == "":
		fmt.Fprintf(w, "available aggregators: %s (plus: draco, tf)\n", strings.Join(gar.Names(), ", "))
		return nil
	case listAttacks:
		fmt.Fprintf(w, "available attacks: %s\n", strings.Join(attack.Names(), ", "))
		fmt.Fprintf(w, "available optimizers: %s\n", strings.Join(opt.Names(), ", "))
		return nil
	}

	fmt.Fprintf(w, "experiment=%s backend=%s aggregator=%s n=%d f=%d optimizer=%s lr=%g batch=%d steps=%d\n",
		cfg.Experiment, cfg.Network.Backend, cfg.Aggregator, cfg.Workers, cfg.F, cfg.Optimizer, cfg.LR, cfg.Batch, cfg.Steps)
	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-12s %-10s %-10s\n", "sim_time", "step", "accuracy", "loss")
	for i, p := range res.Accuracy.Points {
		loss := 0.0
		if i < len(res.LossVsStep.Points) {
			loss = res.LossVsStep.Points[i].Value
		}
		fmt.Fprintf(w, "%-10.1f %-12d %-10.4f %-10.4f\n", p.Time.Seconds(), p.Step, p.Value, loss)
	}
	fmt.Fprintf(w, "final accuracy: %.4f\n", res.FinalAccuracy)
	fmt.Fprintf(w, "throughput: %.2f gradients/s (%.2f updates/s)\n",
		res.Throughput.GradientsPerSecond(), res.Throughput.BatchesPerSecond())
	fmt.Fprintf(w, "latency breakdown: compute+comm %.3fs, aggregation %.3fs (%.0f%% share)\n",
		res.Breakdown.ComputeComm.Seconds(), res.Breakdown.Aggregation.Seconds(),
		res.Breakdown.AggregationShare()*100)
	if res.SkippedRounds > 0 {
		fmt.Fprintf(w, "skipped rounds (quorum lost): %d\n", res.SkippedRounds)
	}
	if res.Hijacked {
		fmt.Fprintln(w, "WARNING: a Byzantine worker overwrote the parameters (vanilla mode)")
	}
	if res.Diverged {
		fmt.Fprintln(w, "WARNING: training diverged (non-finite parameters)")
	}
	if res.ResumedFromStep > 0 {
		fmt.Fprintf(w, "resumed from checkpointed step %d\n", res.ResumedFromStep)
	}
	return nil
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
		name := strings.TrimSpace(kv[1])
		if name == "" {
			return nil, fmt.Errorf("bad attack spec %q: empty attack name", part)
		}
		out[id] = name
	}
	return out, nil
}

// idsInto is a flag.Func setter that parses a comma-separated id list into
// *dst.
func idsInto(dst *[]int) func(string) error {
	return func(spec string) (err error) {
		*dst, err = parseIDs(spec)
		return err
	}
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
