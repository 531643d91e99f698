// Command benchmark measures real training rounds — Step() calls on
// ps.Cluster, cluster.TCPCluster and cluster.UDPCluster — end to end and
// layer by layer. BENCHMARK.json at the module root is its contract and
// README.md its manual.
//
//	benchmark -workload W -seed N -seconds S -trace 0|1   one run, in this process
//	benchmark [-trace 0|1] [-out DIR]                     every workload, each in a child process
//	benchmark -compare A/results.json B/results.json      verdict per workload × metric
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	seed := flag.Int64("seed", 1, "the only source of randomness: datasets, models and every cluster seed derive from it")
	name := flag.String("workload", "", "run this workload in this process (default: all, each in a child process)")
	trace := flag.Int("trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass and probes, per-layer metrics (default: both)")
	seconds := flag.Float64("seconds", defaultSeconds, "timed window of one run")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for trace files, run reports and results.json")
	short := flag.Bool("short", false, "5 timed rounds per workload: a smoke run, not a measurement")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments; exit 1 on a regression")
	flag.Parse()

	// Closed loop, one client; the n workers are the cluster's own
	// goroutines, and all of them share one CPU (pin.go).
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: not pinned to one CPU, times will be noisier:", err)
	}

	err := func() error {
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return errors.New("-compare takes two results.json files")
			}
			return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		case flag.NArg() != 0:
			return fmt.Errorf("unexpected argument %q", flag.Arg(0))
		case *trace < -1 || *trace > 1:
			return fmt.Errorf("-trace %d: want 0 or 1", *trace)
		case *seconds <= 0:
			return fmt.Errorf("-seconds %v: want a positive number", *seconds)
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		o := options{seed: *seed, seconds: *seconds, short: *short, outDir: *out}
		if *name == "" {
			return runAll(o, *trace)
		}
		if *trace < 0 {
			return errors.New("-workload needs -trace 0 or -trace 1")
		}
		w, err := lookupWorkload(*name)
		if err != nil {
			return err
		}
		o.trace = *trace == 1
		return runOne(w, o)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func (o options) defs() []metricDef {
	if o.trace {
		return perLayer
	}
	return endToEnd
}

func reportPath(dir, workload string, trace bool) string {
	pass := "e2e"
	if trace {
		pass = "traced"
	}
	return filepath.Join(dir, "run-"+workload+"-"+pass+".json")
}

// runOne is the driver's contract: run one workload, print every metric by
// name and unit, and end with the result as one JSON line. Output checks
// that fail make the result incorrect, not the exit code non-zero; only a
// run that could not be measured at all exits 1 without a result.
func runOne(w workload, o options) error {
	rep, err := runWorkload(w, o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	for _, d := range o.defs() {
		m, ok := rep.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", w.Name, d.Name)
		}
		fmt.Printf("%-20s %-38s %14.4f %s\n", w.Name, d.Name, m.Value, m.Unit)
	}
	for _, d := range endToEnd {
		if raw, ok := rep.Host.Raw[d.Name]; ok {
			fmt.Printf("%-20s %-38s %14.4f %s\n", w.Name, "raw."+d.Name, raw, d.Unit)
		}
	}
	fmt.Printf("%-20s %-38s %14.4f ms (nominal %.1f), busy share %.3f, scale %.4f; set-ups %.4f ms, %.3f, %.4f\n", w.Name, "host.yard_ms",
		rep.Host.YardMS, yardNominalMS, rep.Host.BusyShare, rep.Host.Scale, rep.Host.SetupYardMS, rep.Host.SetupBusy, rep.Host.SetupScale)
	fmt.Printf("%-20s %-38s %s\n", w.Name, "trajectory_sha256", rep.TrajectorySHA256)
	for _, v := range rep.Violations {
		fmt.Printf("%-20s VIOLATION %s\n", w.Name, v)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := os.WriteFile(reportPath(o.outDir, w.Name, o.trace), js, 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// resultsFile accumulates runs: repeated invocations with the same -out
// append, which is how the ten alternating pairs -compare wants are made.
type resultsFile struct {
	Schema     string   `json:"schema"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GoVersion  string   `json:"go_version"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Runs       []report `json:"runs"`
}

const resultsSchema = "aggregathor-benchmark/1"

func loadResults(path string) (*resultsFile, error) {
	js, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(js, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultsSchema)
	}
	return &rf, nil
}

// runAll runs the chosen workloads and passes, each in a child process of
// its own so that peak RSS, GC state and goroutine counts are per run.
func runAll(o options, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	resultsPath := filepath.Join(o.outDir, "results.json")
	rf, err := loadResults(resultsPath)
	if errors.Is(err, os.ErrNotExist) {
		rf, err = &resultsFile{}, nil
	}
	if err != nil {
		return err
	}
	rf.Schema, rf.GOOS, rf.GOARCH, rf.GoVersion = resultsSchema, runtime.GOOS, runtime.GOARCH, runtime.Version()
	rf.NProc, rf.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)

	passes := []bool{false, true}
	if trace >= 0 {
		passes = []bool{trace == 1}
	}
	bad := 0
	for _, w := range workloads {
		var reps []report
		for _, traced := range passes {
			o.trace = traced
			rep := runChild(self, w, o)
			if !rep.Correct {
				bad++
			}
			reps = append(reps, rep)
			rf.Runs = append(rf.Runs, rep)
		}
		if len(reps) == 2 {
			if reps[0].TrajectorySHA256 != reps[1].TrajectorySHA256 {
				fmt.Printf("%-20s VIOLATION traced and untraced trajectories differ\n", w.Name)
				bad++
			}
			untraced, traced := reps[0].Metrics["rounds_per_s"].Value, reps[1].Metrics["trace.rounds_per_s"].Value
			if untraced > 0 {
				fmt.Printf("%-20s %-38s %14.4f ratio\n", w.Name, "trace_overhead_share", 1-traced/untraced)
			}
		}
	}
	js, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultsPath, append(js, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d runs)\n", resultsPath, len(rf.Runs))
	if bad > 0 {
		return fmt.Errorf("%d runs failed their output checks", bad)
	}
	return nil
}

// runChild re-executes this binary for one workload and pass. A child that
// overruns five times its expected duration is killed and comes back as one
// attempted, one failed — a wedged cluster shows as a failure, not a hang.
func runChild(self string, w workload, o options) report {
	expected := time.Duration(o.seconds*float64(time.Second)) + 20*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 5*expected)
	defer cancel()
	traceArg := "0"
	if o.trace {
		traceArg = "1"
	}
	args := []string{"-workload", w.Name, "-trace", traceArg, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.outDir}
	if o.short {
		args = append(args, "-short")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	path := reportPath(o.outDir, w.Name, o.trace)
	os.Remove(path) // a stale report must not stand in for a child that died
	failed := func(why string) report {
		fmt.Printf("%-20s VIOLATION %s\n", w.Name, why)
		return report{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
			Violations: []string{why}, result: result{Attempted: 1, Failed: 1}}
	}
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return failed(fmt.Sprintf("killed after %v", 5*expected))
		}
		return failed(err.Error())
	}
	js, err := os.ReadFile(path)
	if err != nil {
		return failed(err.Error())
	}
	var rep report
	if err := json.Unmarshal(js, &rep); err != nil {
		return failed(err.Error())
	}
	return rep
}
