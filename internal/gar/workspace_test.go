package gar

import (
	"math"
	"runtime"
	"testing"

	"aggregathor/internal/tensor"
)

// workspaceRules enumerates every WorkspaceGAR with an f that is valid at
// n=11 workers.
func workspaceRules(t *testing.T) []GAR {
	t.Helper()
	rules := []GAR{
		Average{},
		SelectiveAverage{},
		Median{},
		TrimmedMean{Beta: 2},
		NewMeanAroundMedian(2),
		NewKrum(2),
		NewMultiKrum(2),
		NewBulyan(2),
		NewGeoMedian(2),
		NewGenericBulyan(Median{}, 2),
		NewGenericBulyan(NewGeoMedian(2), 2),
	}
	for _, r := range rules {
		if _, ok := r.(WorkspaceGAR); !ok {
			t.Fatalf("%s does not implement WorkspaceGAR", r.Name())
		}
	}
	return rules
}

func vecEq(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// TestAggregateIntoMatchesAggregate: the workspace path must be
// bit-identical to the fresh-allocation path for every rule, over clean,
// sparsely-poisoned and densely-poisoned inputs — while the SAME workspace
// is reused across all rules and cases, which is exactly how the trainer
// loops drive it.
func TestAggregateIntoMatchesAggregate(t *testing.T) {
	ws := NewWorkspace()
	for _, rule := range workspaceRules(t) {
		for _, tc := range []struct {
			seed int64
			n, d int
			pBad float64
		}{
			{21, 11, 257, 0},
			{22, 11, 1024, 0.02},
			{23, 11, 100, 0.7},
			{24, 15, 4097, 0},
		} {
			grads := randVectors(tc.seed, tc.n, tc.d, tc.pBad)
			want, errWant := rule.Aggregate(grads)
			got, errGot := AggregateInto(ws, rule, grads)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("%s seed %d: error mismatch: %v vs %v", rule.Name(), tc.seed, errWant, errGot)
			}
			if errWant != nil {
				continue
			}
			if !vecEq(got, want) {
				t.Fatalf("%s seed %d: workspace aggregate diverges from plain Aggregate", rule.Name(), tc.seed)
			}
		}
	}
}

// plainAverage is a deliberately workspace-less rule: it implements GAR but
// not WorkspaceGAR, standing in for third-party rules that only provide the
// allocating path (every built-in rule now has a workspace kernel).
type plainAverage struct{}

func (plainAverage) Name() string { return "plain-average" }

func (plainAverage) Aggregate(grads []tensor.Vector) (tensor.Vector, error) {
	if err := checkUniform(grads); err != nil {
		return nil, err
	}
	return tensor.Mean(grads), nil
}

// TestAggregateIntoFallback: rules without workspace kernels (and nil
// workspaces) must route through plain Aggregate.
func TestAggregateIntoFallback(t *testing.T) {
	grads := randVectors(25, 11, 64, 0)
	plain := plainAverage{}
	want, err := plain.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AggregateInto(NewWorkspace(), plain, grads)
	if err != nil {
		t.Fatal(err)
	}
	if !vecEq(got, want) {
		t.Fatal("fallback path diverges from Aggregate")
	}
	got, err = AggregateInto(nil, Median{}, grads)
	if err != nil {
		t.Fatal(err)
	}
	want, _ = Median{}.Aggregate(grads)
	if !vecEq(got, want) {
		t.Fatal("nil-workspace path diverges from Aggregate")
	}
}

// TestWorkspaceZeroSteadyStateAllocs pins the tentpole allocation claim:
// once warm, a workspace-backed aggregation performs zero heap allocations.
// The dimensions sit below the parallel thresholds — the sequential kernels
// are the steady-state contract; parallel sweeps additionally pay O(workers)
// goroutine spawns.
func TestWorkspaceZeroSteadyStateAllocs(t *testing.T) {
	const d = 2048
	// Finite tiles are sorted tile-wide; the NaN sends its tile through the
	// per-column kernels; the even height adds the midpoint ties.
	poisoned := randVectors(26, 11, d, 0)
	poisoned[3][700] = math.NaN()
	for _, grads := range [][]tensor.Vector{randVectors(26, 11, d, 0), poisoned, randVectors(26, 12, d, 0)} {
		for _, rule := range workspaceRules(t) {
			ws := NewWorkspace()
			wg := rule.(WorkspaceGAR)
			if _, err := wg.AggregateInto(ws, grads); err != nil { // warm the arena
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := wg.AggregateInto(ws, grads); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s n=%d: %v allocs per warm workspace aggregation, want 0", rule.Name(), len(grads), allocs)
			}
		}
	}
}

// TestWorkspaceReuseAcrossShapes: a single workspace must survive changing
// n and d between calls (the TCP/UDP trainers see varying survivor counts
// every round).
func TestWorkspaceReuseAcrossShapes(t *testing.T) {
	ws := NewWorkspace()
	rule := NewMultiKrum(1)
	for _, shape := range []struct{ n, d int }{
		{7, 100}, {11, 5000}, {5, 10}, {19, 2500}, {7, 100},
	} {
		grads := randVectors(int64(27+shape.n), shape.n, shape.d, 0.01)
		want, err := rule.Aggregate(grads)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AggregateInto(ws, rule, grads)
		if err != nil {
			t.Fatal(err)
		}
		if !vecEq(got, want) {
			t.Fatalf("n=%d d=%d: reused workspace diverges", shape.n, shape.d)
		}
	}
}

// TestWorkspaceRulesGOMAXPROCSParity: every parallel kernel path (blocked
// distances, column engine) must produce bit-identical aggregates at
// GOMAXPROCS=1 and GOMAXPROCS=8, above the parallel thresholds.
func TestWorkspaceRulesGOMAXPROCSParity(t *testing.T) {
	const d = 2*distParallelMin + 13
	// At pBad 0.001 nearly every tile of the column pass holds a non-finite
	// value and takes the per-column kernels; at 1e-6 nearly every tile is
	// sorted tile-wide, the even height with its midpoint ties.
	for _, grads := range [][]tensor.Vector{
		randVectors(28, 19, d, 0.001), randVectors(28, 19, d, 1e-6), randVectors(28, 20, d, 1e-6),
	} {
		rules := []GAR{Median{}, TrimmedMean{Beta: 4}, NewMeanAroundMedian(4),
			SelectiveAverage{}, NewMultiKrum(4), NewBulyan(4),
			NewGeoMedian(4), NewGenericBulyan(Median{}, 4)}
		for _, rule := range rules {
			run := func(procs int) tensor.Vector {
				old := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(old)
				out, err := AggregateInto(NewWorkspace(), rule, grads)
				if err != nil {
					t.Fatal(err)
				}
				return out.Clone()
			}
			a, b := run(1), run(8)
			if !vecEq(a, b) {
				t.Errorf("%s n=%d: aggregate depends on GOMAXPROCS", rule.Name(), len(grads))
			}
		}
	}
}

// TestMeanAroundMedianInfiniteMiddles: a column whose two middle ranks are
// -Inf and +Inf makes the median itself NaN (midpoint of opposite
// infinities) with no NaN in the input; the kernel must emit the null
// update, as the sort-based implementation did, not propagate NaN into the
// parameters.
func TestMeanAroundMedianInfiniteMiddles(t *testing.T) {
	inf := math.Inf(1)
	grads := []tensor.Vector{{-inf}, {-inf}, {inf}, {inf}}
	for _, rule := range []GAR{NewMeanAroundMedian(1), NewGenericBulyan(Median{}, 0)} {
		out, err := rule.Aggregate(grads)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != 0 {
			t.Errorf("%s: coordinate with ±Inf middles aggregated to %v, want 0", rule.Name(), out[0])
		}
	}
}

// TestBulyanIncrementalMatchesNaive: the incremental sorted-row rescoring
// must extract exactly the same gradients as the naive re-distance path.
func TestBulyanIncrementalMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		n, f int
		pBad float64
	}{
		{29, 7, 1, 0},
		{30, 11, 2, 0},
		{31, 19, 4, 0},
		{32, 11, 2, 0.05},
		{33, 11, 2, 0.9},
	} {
		grads := randVectors(tc.seed, tc.n, 300, tc.pBad)
		a, err := NewBulyan(tc.f).Select(grads)
		if err != nil {
			t.Fatal(err)
		}
		b := selectNaive(grads, tc.f)
		if len(a) != len(b) {
			t.Fatalf("seed %d: selection sizes differ: %v vs %v", tc.seed, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: incremental selection %v != naive %v", tc.seed, a, b)
			}
		}
	}
}
