// Command bench times the GAR kernel engine — ns/op, MB/s and allocs/op for
// every hot aggregation rule, fresh and workspace-backed, plus the blocked
// pairwise-distance engine — and writes BENCH_aggregation.json into the -out
// directory (default "."), the perf-trajectory artifact CI uploads on every
// run:
//
//	go run ./cmd/bench -benchtime 50ms
//
// The paper's tables and figures are the root package's benchmarks
// (bench_test.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"math/rand"

	"aggregathor/internal/gar"
	"aggregathor/internal/tensor"
)

func main() {
	outDir := flag.String("out", ".", "directory for BENCH_aggregation.json")
	benchTime := flag.Duration("benchtime", 300*time.Millisecond, "per-kernel time budget")
	flag.Parse()
	path, rows, err := writeKernelBenchJSON(*outDir, *benchTime)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("bench: wrote %d kernel benchmarks to %s\n", rows, path)
}

// benchResult is one row of the BENCH_aggregation.json trajectory artifact.
type benchResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchReport is the BENCH_aggregation.json schema. Numbers are machine-
// dependent; the file is a perf trajectory to diff across commits on the
// same hardware, not a determinism artifact.
type benchReport struct {
	Schema     string        `json:"schema"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Kernels    string        `json:"kernels"` // tensor.Kernels(): which kernel set produced the rows
	GOMAXPROCS int           `json:"gomaxprocs"`
	Workers    int           `json:"workers"`
	Dim        int           `json:"dim"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// benchKernel times fn, which processes bytes input bytes per call, until
// budget is spent. Kernels are deterministic on one input, so only the
// warm-up call's error is checked.
func benchKernel(name string, bytes int64, budget time.Duration, fn func() error) (benchResult, error) {
	if err := fn(); err != nil { // warm scratch arenas and caches outside the measurement
		return benchResult{}, fmt.Errorf("%s: %w", name, err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	iters := 0
	for time.Since(start) < budget || iters < 3 {
		fn()
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	nsPerOp := float64(elapsed.Nanoseconds()) / float64(iters)
	return benchResult{
		Name:        name,
		Iters:       iters,
		NsPerOp:     nsPerOp,
		MBPerS:      float64(bytes) / (nsPerOp / 1e9) / 1e6,
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(iters),
	}, nil
}

// writeKernelBenchJSON times every hot GAR kernel at the paper's n=19 on a
// d=100k slice of the Table-1 model — the BenchmarkCost_GARComplexity
// operating point — in both the fresh-allocation and workspace-backed
// modes, plus the blocked pairwise-distance engine alone, and writes the rows
// to dir/BENCH_aggregation.json. It returns the file's path and row count.
func writeKernelBenchJSON(dir string, budget time.Duration) (string, int, error) {
	const n, d = 19, 100_000
	rng := rand.New(rand.NewSource(3))
	grads := make([]tensor.Vector, n)
	for i := range grads {
		v := tensor.NewVector(d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		grads[i] = v
	}
	bytes := int64(n * d * 8)

	report := benchReport{
		Schema:     "aggregathor-bench/v1",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernels:    tensor.Kernels(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    n,
		Dim:        d,
	}

	rules := []struct {
		name string
		rule gar.GAR
	}{
		{"average", gar.Average{}},
		{"median", gar.Median{}},
		{"trimmed-mean", gar.TrimmedMean{Beta: 4}},
		{"mean-around-median", gar.NewMeanAroundMedian(4)},
		{"multi-krum", gar.NewMultiKrum(4)},
		{"bulyan", gar.NewBulyan(4)},
	}
	type kernel struct {
		name string
		fn   func() error
	}
	var kernels []kernel
	for _, r := range rules {
		ws := gar.NewWorkspace()
		kernels = append(kernels,
			kernel{"aggregate/" + r.name, func() error {
				_, err := r.rule.Aggregate(grads)
				return err
			}},
			kernel{"workspace/" + r.name, func() error {
				_, err := gar.AggregateInto(ws, r.rule, grads)
				return err
			}})
	}
	var distWS gar.Workspace
	kernels = append(kernels, kernel{"distances/blocked", func() error {
		gar.BlockedPairwiseSquaredDistances(grads, &distWS)
		return nil
	}})
	for _, k := range kernels {
		row, err := benchKernel(k.name, bytes, budget, k.fn)
		if err != nil {
			return "", 0, err
		}
		report.Benchmarks = append(report.Benchmarks, row)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, "BENCH_aggregation.json")
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return "", 0, err
	}
	return path, len(report.Benchmarks), os.WriteFile(path, append(buf, '\n'), 0o644)
}
