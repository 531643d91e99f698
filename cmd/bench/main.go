// Command bench regenerates every table and figure of the AggregaThor paper
// as aligned text tables and TSV series. Run with -quick for a fast pass
// (fewer steps) or -out DIR to also write per-figure TSV files.
//
//	go run ./cmd/bench -quick
//
// With -json the command instead times the GAR kernel engine (per-benchmark
// ns/op, MB/s, allocs/op for every hot aggregation rule, fresh and
// workspace-backed, plus the blocked pairwise-distance engine) and writes
// BENCH_aggregation.json into the -out directory (default ".") — the
// tracked perf-trajectory artifact that CI uploads on every run:
//
//	go run ./cmd/bench -json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"math/rand"

	"aggregathor/internal/core"
	"aggregathor/internal/metrics"
	"aggregathor/internal/nn"
	"aggregathor/internal/simnet"
	"aggregathor/internal/transport"
)

var (
	quick     = flag.Bool("quick", false, "run fewer steps per experiment")
	outDir    = flag.String("out", "", "directory for TSV series / bench JSON (optional)")
	seed      = flag.Int64("seed", 3, "experiment seed")
	jsonBench = flag.Bool("json", false, "time the GAR kernels and write BENCH_aggregation.json instead of regenerating figures")
	benchTime = flag.Duration("benchtime", 300*time.Millisecond, "per-kernel time budget in -json mode")
)

func main() {
	flag.Parse()
	steps := 200
	if *quick {
		steps = 60
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	if *jsonBench {
		if err := writeKernelBenchJSON(); err != nil {
			fatal(err)
		}
		return
	}

	table1()
	fig3(steps)
	fig4()
	fig5()
	fig6(steps)
	fig7(steps)
	fig8(steps)
	costAnalysis()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func run(cfg core.Config) *core.Result {
	cfg.Seed = *seed
	res, err := core.Run(cfg)
	if err != nil {
		fatal(err)
	}
	return res
}

func writeSeries(name string, s metrics.Series) {
	if *outDir == "" {
		return
	}
	path := filepath.Join(*outDir, name+".tsv")
	if err := os.WriteFile(path, []byte(s.TSV()), 0o644); err != nil {
		fatal(err)
	}
}

// table1 prints the CNN architecture with the paper's parameter count.
func table1() {
	model := nn.NewCIFARCNN(rand.New(rand.NewSource(1)))
	fmt.Println("== Table 1: CNN model parameters ==")
	fmt.Print(model.Summary())
	fmt.Printf("(paper reports ~1.75M parameters)\n\n")
}

// fig3 reproduces the non-Byzantine overhead curves at mini-batch 250 and
// 20, printing time-to-half-accuracy slowdowns against vanilla TF.
func fig3(steps int) {
	configs := []struct {
		label, agg string
		f          int
	}{
		{"TF", "tf", 0},
		{"Average", "average", 0},
		{"Median", "median", 0},
		{"Multi-Krum (f=4)", "multi-krum", 4},
		{"Bulyan (f=4)", "bulyan", 4},
		{"Draco (f=4)", "draco", 4},
	}
	for _, batch := range []int{250, 20} {
		rows := map[string][]string{}
		// The paper's metric: every system is timed to 50% of *vanilla
		// TF's* final accuracy ("19% and 43% slower for reaching the
		// same accuracy"), so the target is fixed by the TF run first.
		var target, baseline float64
		for _, cfg := range configs {
			res := run(core.Config{
				Workers: 19, F: cfg.f, Aggregator: cfg.agg,
				Optimizer: "momentum", LR: 0.1, Batch: batch,
				// A fine evaluation grid: the crossing time would
				// otherwise be quantised to the evaluation period.
				Steps: steps, EvalEvery: 2,
			})
			writeSeries(fmt.Sprintf("fig3_b%d_%s", batch, cfg.agg), res.AccuracyVsTime)
			if cfg.agg == "tf" {
				target = res.AccuracyVsTime.MaxValue() / 2
			}
			tHalf, ok := res.AccuracyVsTime.TimeToValue(target)
			if !ok {
				tHalf = -1
			}
			if cfg.agg == "tf" {
				baseline = tHalf.Seconds()
			}
			slowdown := "n/a"
			if baseline > 0 && tHalf > 0 {
				slowdown = fmt.Sprintf("%+.0f%%", (tHalf.Seconds()/baseline-1)*100)
			}
			rows[cfg.label] = []string{
				fmt.Sprintf("%.1f", tHalf.Seconds()),
				slowdown,
				fmt.Sprintf("%.3f", res.FinalAccuracy),
			}
		}
		fmt.Print(metrics.Table(
			fmt.Sprintf("Figure 3 (mini-batch %d): overhead in a non-Byzantine environment", batch),
			rows, []string{"s_to_half_acc", "vs_TF", "final_acc"}))
		fmt.Printf("(paper: Multi-Krum +19%%, Bulyan +43%%, Average +7%% at b=250)\n\n")
	}
}

// fig4 prints the latency breakdown per epoch.
func fig4() {
	configs := []struct {
		label, agg string
		f          int
	}{
		{"TF", "tf", 0},
		{"Median", "median", 0},
		{"Multi-Krum (f=4)", "multi-krum", 4},
		{"Bulyan (f=4)", "bulyan", 4},
	}
	rows := map[string][]string{}
	const n, d, batch = 19, 1_756_426, 250
	for _, cfg := range configs {
		sim := simnet.Grid5000(n, d)
		if cfg.agg != "tf" {
			sim.AggTime = simnet.ModelAggregation(cfg.agg, n, cfg.f, d)
		}
		round := sim.SimulateRound(batch)
		b := metrics.Breakdown{
			Name:        cfg.label,
			ComputeComm: round.Compute + round.Transfer,
			Aggregation: round.Aggregate,
		}
		rows[cfg.label] = []string{
			fmt.Sprintf("%.3f", b.ComputeComm.Seconds()),
			fmt.Sprintf("%.3f", b.Aggregation.Seconds()),
			fmt.Sprintf("%.0f%%", b.AggregationShare()*100),
		}
	}
	fmt.Print(metrics.Table("Figure 4: latency breakdown per epoch",
		rows, []string{"compute+comm_s", "aggregation_s", "agg_share"}))
	fmt.Printf("(paper shares: Median 35%%, Multi-Krum 27%%, Bulyan 52%%)\n\n")
}

// fig5 prints the throughput scans for the CNN and ResNet50 cost profiles.
func fig5() {
	counts := []int{2, 4, 6, 8, 10, 12, 14, 16, 18}
	configs := []struct {
		label, agg string
		f          int
	}{
		{"TF", "tf", 0},
		{"Average", "average", 0},
		{"Median", "median", 0},
		{"Multi-Krum (f=1)", "multi-krum", 1},
		{"Multi-Krum (f=4)", "multi-krum", 4},
		{"Bulyan (f=1)", "bulyan", 1},
		{"Bulyan (f=2)", "bulyan", 2},
		{"Draco (f=1)", "draco", 1},
		{"Draco (f=4)", "draco", 4},
	}
	profiles := []struct {
		title string
		dim   int
		flops float64
		batch int
	}{
		{"Figure 5(a): throughput, CNN (d=1.75M)", 1_756_426, nn.CIFARCNNFlopsPerSample, 100},
		{"Figure 5(b): throughput, ResNet50 (d=25.5M)", nn.ResNet50ParamCount, nn.ResNet50FlopsPerSample, 32},
	}
	for _, p := range profiles {
		rows := map[string][]string{}
		for _, cfg := range configs {
			tp := core.ThroughputScan(cfg.agg, cfg.f, counts, p.dim, p.flops, p.batch)
			row := make([]string, len(counts))
			for i, n := range counts {
				row[i] = fmt.Sprintf("%.2f", tp[n])
			}
			rows[cfg.label] = row
		}
		header := make([]string, len(counts))
		for i, n := range counts {
			header[i] = fmt.Sprintf("n=%d", n)
		}
		fmt.Print(metrics.Table(p.title+" (batches/sec)", rows, header))
		fmt.Println()
	}
}

// fig6 prints the impact of f on convergence.
func fig6(steps int) {
	for _, batch := range []int{250, 20} {
		rows := map[string][]string{}
		for _, cfg := range []struct {
			label, agg string
			f          int
		}{
			{"Multi-Krum (f=1)", "multi-krum", 1},
			{"Multi-Krum (f=4)", "multi-krum", 4},
			{"Bulyan (f=1)", "bulyan", 1},
			{"Bulyan (f=4)", "bulyan", 4},
			{"Draco (f=1)", "draco", 1},
			{"Draco (f=4)", "draco", 4},
		} {
			res := run(core.Config{
				Workers: 19, F: cfg.f, Aggregator: cfg.agg,
				Optimizer: "momentum", LR: 0.1, Batch: batch,
				Steps: steps, EvalEvery: 10,
			})
			writeSeries(fmt.Sprintf("fig6_b%d_%s_f%d", batch, cfg.agg, cfg.f), res.AccuracyVsTime)
			last, _ := res.AccuracyVsTime.Last()
			rows[cfg.label] = []string{
				fmt.Sprintf("%.3f", res.FinalAccuracy),
				fmt.Sprintf("%.1f", last.Time.Seconds()),
			}
		}
		fmt.Print(metrics.Table(
			fmt.Sprintf("Figure 6 (mini-batch %d): impact of f on convergence", batch),
			rows, []string{"final_acc", "sim_s_total"}))
		fmt.Println()
	}
}

// fig7 prints the corrupted-data comparison.
func fig7(steps int) {
	rows := map[string][]string{}
	for _, cfg := range []struct {
		label, agg string
		f          int
		corrupt    []int
	}{
		{"TF (non-Byzantine)", "tf", 0, nil},
		{"TF (corrupted worker)", "tf", 0, []int{2}},
		{"AggregaThor (f=1)", "multi-krum", 1, []int{2}},
	} {
		res := run(core.Config{
			Workers: 19, F: cfg.f, Aggregator: cfg.agg,
			Optimizer: "momentum", LR: 0.1, Batch: 250,
			Steps: steps, EvalEvery: 10,
			CorruptData: cfg.corrupt,
		})
		writeSeries("fig7_"+cfg.label, res.AccuracyVsTime)
		rows[cfg.label] = []string{
			fmt.Sprintf("%.3f", res.FinalAccuracy),
			fmt.Sprintf("%v", res.Diverged),
		}
	}
	fmt.Print(metrics.Table("Figure 7: impact of malformed input", rows,
		[]string{"final_acc", "diverged"}))
	fmt.Printf("(paper: TF intolerant to one corrupted worker; AggregaThor matches the non-Byzantine baseline)\n\n")
}

// fig8 prints the dropped-packets experiments.
func fig8(steps int) {
	// (a) 0% artificial drop: the three recoup strategies behave alike.
	rowsA := map[string][]string{}
	for _, cfg := range []struct {
		label, agg string
		f          int
		recoup     transport.RecoupPolicy
	}{
		{"TF (drop gradient)", "average", 0, transport.DropGradient},
		{"Selective Average", "selective-average", 0, transport.FillNaN},
		{"AggregaThor (f=8)", "multi-krum", 8, transport.FillRandom},
	} {
		res := run(core.Config{
			Workers: 19, F: cfg.f, Aggregator: cfg.agg,
			Optimizer: "momentum", LR: 0.1, Batch: 250,
			Steps: steps, EvalEvery: 10,
			UDPLinks: 8, DropRate: 0, Recoup: cfg.recoup,
			Protocol: simnet.UDP,
		})
		writeSeries("fig8a_"+cfg.agg, res.AccuracyVsTime)
		rowsA[cfg.label] = []string{fmt.Sprintf("%.3f", res.FinalAccuracy)}
	}
	fmt.Print(metrics.Table("Figure 8(a): UDP links, 0% artificial drop", rowsA,
		[]string{"final_acc"}))
	fmt.Println()

	// (b) 10% drop: lossy UDP clock vs TCP congestion collapse.
	rowsB := map[string][]string{}
	type resultRow struct {
		res   *core.Result
		label string
	}
	var results []resultRow
	for _, cfg := range []struct {
		label, agg string
		f          int
		proto      simnet.Protocol
		udpLinks   int
		recoup     transport.RecoupPolicy
	}{
		{"AggregaThor (f=8, lossyMPI)", "multi-krum", 8, simnet.UDP, 8, transport.FillRandom},
		{"TF (gRPC)", "tf", 0, simnet.TCP, 0, transport.DropGradient},
	} {
		res := run(core.Config{
			Workers: 19, F: cfg.f, Aggregator: cfg.agg,
			Optimizer: "momentum", LR: 0.1, Batch: 250,
			Steps: steps, EvalEvery: 10,
			UDPLinks: cfg.udpLinks, DropRate: 0.10, Recoup: cfg.recoup,
			Protocol: cfg.proto,
		})
		writeSeries("fig8b_"+cfg.agg, res.AccuracyVsTime)
		results = append(results, resultRow{res, cfg.label})
		target := 0.3 * res.AccuracyVsTime.MaxValue() / 0.75 // 30% absolute in the paper's scale
		tTo, ok := res.AccuracyVsTime.TimeToValue(target)
		toStr := "n/a"
		if ok {
			toStr = fmt.Sprintf("%.1f", tTo.Seconds())
		}
		last, _ := res.AccuracyVsTime.Last()
		rowsB[cfg.label] = []string{
			toStr,
			fmt.Sprintf("%.1f", last.Time.Seconds()),
			fmt.Sprintf("%.3f", res.FinalAccuracy),
		}
	}
	fmt.Print(metrics.Table("Figure 8(b): 10% drop rate", rowsB,
		[]string{"s_to_30pct", "sim_s_total", "final_acc"}))
	if len(results) == 2 {
		a, _ := results[0].res.AccuracyVsTime.Last()
		b, _ := results[1].res.AccuracyVsTime.Last()
		if a.Time > 0 {
			fmt.Printf("(UDP finishes the same schedule %.1fx faster; paper reports >6x to 30%% accuracy)\n", float64(b.Time)/float64(a.Time))
		}
	}
	fmt.Println()
}

// costAnalysis reports the §4.2 cost-model scaling.
func costAnalysis() {
	rows := map[string][]string{}
	for _, agg := range []string{"average", "median", "multi-krum", "bulyan", "draco"} {
		row := []string{}
		for _, n := range []int{9, 19} {
			f := (n - 3) / 4
			row = append(row, fmt.Sprintf("%.3f", simnet.ModelAggregation(agg, n, f, 1_756_426).Seconds()))
		}
		rows[agg] = row
	}
	fmt.Print(metrics.Table("§4.2 cost analysis: modelled aggregation seconds (d=1.75M)",
		rows, []string{"n=9", "n=19"}))
	fmt.Printf("(O(n²d) for Multi-Krum/Bulyan; linear-in-n decode for Draco)\n")
}
