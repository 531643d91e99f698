package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"aggregathor/internal/gar"
)

func TestPercentileMedianAndSegments(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 95); got != 5 {
		t.Errorf("p95 = %v, want 5", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("p95 of one value = %v, want 7", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95 (nearest rank)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}

	// Ten rounds of 10 ms with one 1 s burst: four of five segments run at
	// 100 rounds/s, and the median segment ignores the burst.
	durs := []float64{10, 10, 10, 10, 1000, 10, 10, 10, 10, 10}
	if got := medianSegmentRate(durs, 5); math.Abs(got-100) > 1e-9 {
		t.Errorf("median segment rate = %v, want 100", got)
	}
	if got := medianSegmentRate([]float64{20, 20}, 5); math.Abs(got-50) > 1e-9 {
		t.Errorf("rate with fewer rounds than segments = %v, want 50", got)
	}
	// The same burst is the p95 of all ten rounds and of one segment in five.
	if all, seg := percentile(durs, 95), medianSegmentPercentile(durs, 5, 95); all != 1000 || seg != 10 {
		t.Errorf("p95 of all rounds = %v, want 1000; median segment p95 = %v, want 10", all, seg)
	}
	if got := medianSegmentPercentile([]float64{20, 30}, 5, 95); got != 25 {
		t.Errorf("p95 with fewer rounds than segments = %v, want 25", got)
	}
}

func TestHostScale(t *testing.T) {
	cases := []struct {
		name         string
		busy, yardMS float64
		want         float64
	}{
		{"nominal host", 1, yardNominalMS, 1},
		{"all CPU on a host at half speed", 1, 2 * yardNominalMS, 0.5},
		{"all waiting: the host's speed does not matter", 0, 2 * yardNominalMS, 1},
		{"half and half", 0.5, 2 * yardNominalMS, 0.75},
		{"CPU time past wall time counts as all CPU", 1.7, 2 * yardNominalMS, 0.5},
	}
	for _, c := range cases {
		if got := hostScale(c.busy, c.yardMS); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: scale = %v, want %v", c.name, got, c.want)
		}
	}
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	ms := y.measure()
	if ms <= 0 || float64(y.spent.Nanoseconds())/1e6 != ms {
		t.Errorf("one copy took %v ms, %v accounted", ms, y.spent)
	}
	if err := y.close(); err != nil {
		t.Error(err)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := span{Name: spanRound, StartNS: 100, EndNS: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{StartNS: 110, EndNS: 120}, {StartNS: 150, EndNS: 170}}, 70},
		{"overlapping samplers count once", []span{{StartNS: 110, EndNS: 140}, {StartNS: 120, EndNS: 150}, {StartNS: 125, EndNS: 130}}, 60},
		{"clipped to the parent", []span{{StartNS: 50, EndNS: 110}, {StartNS: 190, EndNS: 400}}, 80},
		{"outside the parent", []span{{StartNS: 0, EndNS: 100}, {StartNS: 200, EndNS: 300}}, 100},
		{"unsorted, touching", []span{{StartNS: 150, EndNS: 200}, {StartNS: 100, EndNS: 150}}, 0},
	}
	for _, c := range cases {
		if got := selfNS(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got, want := quartileSpread([]float64{1, 2}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of two = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one = %v, want 0", got)
	}
}

func TestVerdicts(t *testing.T) {
	lowerDef := metricDef{Name: "round_ms_p50", Better: lower, Bound: 0.10}
	higherDef := metricDef{Name: "rounds_per_s", Better: higher, Bound: 0.10}
	ten := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i)
		}
		return xs
	}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"single runs inside the bound", lowerDef, []float64{100}, []float64{105}, unchanged},
		{"single runs past the bound", lowerDef, []float64{100}, []float64{115}, regressed},
		{"single runs never claim a gain", lowerDef, []float64{100}, []float64{50}, unchanged},
		{"higher is better: a drop regresses", higherDef, []float64{100}, []float64{85}, regressed},
		{"higher is better: a rise does not", higherDef, []float64{100}, []float64{130}, unchanged},
		{"ten clean pairs, every run better", lowerDef, ten(100, 0.1), ten(90, 0.1), improved},
		{"ten pairs, gain inside the parent's spread", lowerDef, ten(100, 1), ten(99.5, 1), unchanged},
		{"spread wider than the bound", lowerDef, ten(100, 5), ten(100, 5), unresolved},
		{"wide spread, yet every run better", lowerDef, ten(100, 5), ten(40, 5), improved},
	}
	for _, c := range cases {
		if got, _ := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitsOnFailedRoundRise(t *testing.T) {
	mk := func(failed int) *resultsFile {
		rf := &resultsFile{Schema: resultsSchema}
		for _, w := range workloads {
			m := map[string]metric{}
			for _, d := range endToEnd {
				m[d.Name] = metric{Value: 1, Unit: d.Unit}
			}
			rf.Runs = append(rf.Runs, report{Workload: w.Name, result: result{Correct: true, Attempted: 100, Failed: failed, Metrics: m}})
		}
		return rf
	}
	dir := t.TempDir()
	write := func(name string, rf *resultsFile) string {
		js, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, js, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	clean, failing := write("a.json", mk(0)), write("b.json", mk(1))
	var out bytes.Buffer
	if err := compareFiles(&out, clean, clean); err != nil {
		t.Errorf("identical files: %v\n%s", err, out.String())
	}
	if err := compareFiles(&out, clean, failing); err == nil {
		t.Error("a rise in failed rounds did not fail the comparison")
	}
}

// TestDecoratorsKeepTheTrajectory: on all three backends a cluster handed the
// traced GAR, optimizer and sampler ends five rounds with the parameters of
// the undecorated cluster, bit for bit.
func TestDecoratorsKeepTheTrajectory(t *testing.T) {
	for _, backend := range []string{backendInproc, backendTCP, backendUDP} {
		w := workload{Name: backend + "-test", Backend: backend, GAR: "multi-krum", Hidden: 2}
		run := func(rec *recorder) []float64 {
			dep, err := deploy(w, 3, rec)
			if err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			defer dep.close()
			for i := 0; i < 5; i++ {
				res, err := dep.step()
				if err != nil {
					t.Fatalf("%s round %d: %v", backend, i, err)
				}
				if roundFailed(w, res, 0) {
					t.Fatalf("%s round %d: received %d, skipped %v", backend, i, res.Received, res.Skipped)
				}
			}
			return dep.params()
		}
		rec := newRecorder()
		plain, traced := run(nil), run(rec)
		if i := firstDifference(plain, traced); i >= 0 {
			t.Errorf("%s: parameter %d differs under the decorators", backend, i)
		}
		var garSpans, optSpans int
		for _, s := range rec.spans {
			switch s.Name {
			case spanGAR:
				garSpans++
			case spanOpt:
				optSpans++
			}
		}
		if garSpans != 5 || optSpans != 5 {
			t.Errorf("%s: %d gar and %d optimizer spans over 5 rounds", backend, garSpans, optSpans)
		}
	}
}

func TestTracedGARKeepsTheRuleInterfaces(t *testing.T) {
	wrap := func(g gar.GAR) gar.GAR { return traceGAR(newRecorder(), g) }
	krum, err := gar.New("multi-krum", declaredF)
	if err != nil {
		t.Fatal(err)
	}
	traced := wrap(krum)
	if _, ok := traced.(gar.WorkspaceGAR); !ok {
		t.Error("traced multi-krum lost the workspace path")
	}
	info, ok := traced.(gar.ByzantineInfo)
	if !ok {
		t.Fatal("traced multi-krum lost its declared-f bound")
	}
	if want := krum.(gar.ByzantineInfo); info.F() != want.F() || info.MinWorkers() != want.MinWorkers() {
		t.Errorf("traced bound f=%d min=%d, want f=%d min=%d", info.F(), info.MinWorkers(), want.F(), want.MinWorkers())
	}
	avg := wrap(gar.Average{})
	if _, ok := avg.(gar.WorkspaceGAR); !ok {
		t.Error("traced average lost the workspace path")
	}
	if _, ok := avg.(gar.ByzantineInfo); ok {
		t.Error("traced average gained a bound the rule does not declare")
	}
}

// benchmarkJSON is BENCHMARK.json's whole shape: exactly these keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONListsExactlyTheseNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if json.Unmarshal(raw, &a) != nil || json.Unmarshal(again, &b) != nil || !reflect.DeepEqual(a, b) {
		t.Error("BENCHMARK.json does not round-trip through its schema")
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: listed %q, defined %q", i, doc.Workloads[i].Name, w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d defined", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := doc.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: listed %+v, defined %+v", i, got, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d defined", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := doc.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: listed %+v, defined %+v", i, got, d)
		}
	}
}

// TestShortRunsComplete: five rounds of every workload pass every output
// check and report every end-to-end metric; one traced run reports every
// per-layer metric and writes its trace file.
func TestShortRunsComplete(t *testing.T) {
	check := func(w workload, o options) *report {
		t.Helper()
		rep, err := runWorkload(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted != 5 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d violations=%v", w.Name, rep.Correct, rep.Attempted, rep.Failed, rep.Violations)
		}
		for _, d := range o.defs() {
			m, ok := rep.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", w.Name, d.Name, m, ok, d.Unit)
			}
		}
		if len(rep.Metrics) != len(o.defs()) {
			t.Errorf("%s: %d metrics reported, %d defined", w.Name, len(rep.Metrics), len(o.defs()))
		}
		// Every scaled metric is its raw value times or over the run's scale.
		h := rep.Host
		if !(h.YardMS > 0 && h.Scale > 0 && h.SetupScale > 0) || len(h.Raw) != 5 {
			t.Errorf("%s: host reading %+v", w.Name, h)
		}
		if m, ok := rep.Metrics["round_ms_p50"]; ok && math.Abs(m.Value-h.Raw["round_ms_p50"]*h.Scale) > 1e-9 {
			t.Errorf("%s: round_ms_p50 %v, raw %v, scale %v", w.Name, m.Value, h.Raw["round_ms_p50"], h.Scale)
		}
		return rep
	}
	o := options{seed: 1, seconds: 1, short: true, outDir: t.TempDir()}
	hashes := map[string]string{}
	for _, w := range workloads {
		if raceEnabled && w.Hidden > 32 {
			continue
		}
		hashes[w.Name] = check(w, o).TrajectorySHA256
	}
	o.trace = true
	w := workloads[2] // tcp-small-2k: the cheapest
	if got := check(w, o).TrajectorySHA256; got != hashes[w.Name] {
		t.Errorf("%s: traced trajectory %s, untraced %s", w.Name, got, hashes[w.Name])
	}
	if _, err := os.Stat(o.outDir + "/trace-" + w.Name + ".jsonl"); err != nil {
		t.Error(err)
	}
}
