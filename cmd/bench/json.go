package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"math/rand"

	"aggregathor/internal/gar"
	"aggregathor/internal/tensor"
)

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
// the -benchtime budget is spent.
func benchKernel(name string, bytes int64, fn func()) benchResult {
	fn() // warm scratch arenas and caches outside the measurement
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	iters := 0
	for time.Since(start) < *benchTime || iters < 3 {
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
	}
}

// writeKernelBenchJSON times every hot GAR kernel at the paper's n=19 on a
// d=100k slice of the Table-1 model — the BenchmarkCost_GARComplexity
// operating point — in both the fresh-allocation and workspace-backed
// modes, plus the blocked pairwise-distance engine alone, and writes the rows
// to BENCH_aggregation.json.
func writeKernelBenchJSON() error {
	const n, d = 19, 100_000
	rng := rand.New(rand.NewSource(*seed))
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
	for _, r := range rules {
		r := r
		report.Benchmarks = append(report.Benchmarks,
			benchKernel("aggregate/"+r.name, bytes, func() {
				if _, err := r.rule.Aggregate(grads); err != nil {
					fatal(err)
				}
			}))
		ws := gar.NewWorkspace()
		report.Benchmarks = append(report.Benchmarks,
			benchKernel("workspace/"+r.name, bytes, func() {
				if _, err := gar.AggregateInto(ws, r.rule, grads); err != nil {
					fatal(err)
				}
			}))
	}

	var distWS gar.Workspace
	report.Benchmarks = append(report.Benchmarks,
		benchKernel("distances/blocked", bytes, func() {
			gar.BlockedPairwiseSquaredDistances(grads, &distWS)
		}))

	dir := *outDir
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "BENCH_aggregation.json")
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("bench: wrote %d kernel benchmarks to %s\n", len(report.Benchmarks), path)
	return nil
}
