package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestKernelBenchJSONContract writes the CI artifact at a tiny budget and
// checks what a reader of the trajectory relies on: the schema string, the
// operating point and the row names in order.
func TestKernelBenchJSONContract(t *testing.T) {
	dir := t.TempDir()
	path, rows, err := writeKernelBenchJSON(dir, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(buf, &report); err != nil {
		t.Fatal(err)
	}
	if report.Schema != "aggregathor-bench/v1" || report.Workers != 19 || report.Dim != 100_000 {
		t.Fatalf("schema %q, workers %d, dim %d; want aggregathor-bench/v1, 19, 100000", report.Schema, report.Workers, report.Dim)
	}
	want := []string{
		"aggregate/average", "workspace/average",
		"aggregate/median", "workspace/median",
		"aggregate/trimmed-mean", "workspace/trimmed-mean",
		"aggregate/mean-around-median", "workspace/mean-around-median",
		"aggregate/multi-krum", "workspace/multi-krum",
		"aggregate/bulyan", "workspace/bulyan",
		"distances/blocked",
	}
	var names []string
	for _, b := range report.Benchmarks {
		names = append(names, b.Name)
		if b.Iters < 3 || b.NsPerOp <= 0 {
			t.Fatalf("%s: %d iterations at %v ns/op", b.Name, b.Iters, b.NsPerOp)
		}
	}
	if !reflect.DeepEqual(names, want) || rows != len(want) {
		t.Fatalf("rows %v (reported %d), want %v", names, rows, want)
	}
}
