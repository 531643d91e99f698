package core

import (
	"errors"
	"testing"

	"aggregathor/internal/simnet"
	"aggregathor/internal/transport"
)

func TestExperimentsListed(t *testing.T) {
	exps := Experiments()
	if len(exps) < 4 {
		t.Fatalf("want >= 4 presets, got %d", len(exps))
	}
	for i := 1; i < len(exps); i++ {
		if exps[i-1].Name >= exps[i].Name {
			t.Fatal("presets must be sorted")
		}
	}
	for _, name := range []string{"features-mlp", "mnist", "cnnet", "cifar-cnn"} {
		if _, err := LookupExperiment(name); err != nil {
			t.Fatalf("LookupExperiment(%q): %v", name, err)
		}
	}
	if _, err := LookupExperiment("imagenet"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunDefaultsAndConvergence(t *testing.T) {
	res, err := Run(Config{
		Workers: 9, F: 2, Aggregator: "multi-krum",
		Optimizer: "momentum", LR: 0.1, Batch: 32,
		Steps: 150, EvalEvery: 25, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.5 {
		t.Fatalf("final accuracy %v", res.FinalAccuracy)
	}
	if len(res.Accuracy.Points) == 0 {
		t.Fatal("series empty")
	}
	last, _ := res.Accuracy.Last()
	if last.Time <= 0 {
		t.Fatal("simulated clock did not advance")
	}
	if res.Diverged || res.Hijacked {
		t.Fatalf("unexpected flags: %+v", res)
	}
	if res.Throughput.BatchesPerSecond() <= 0 {
		t.Fatal("throughput not recorded")
	}
}

func TestRunUnknownNames(t *testing.T) {
	if _, err := Run(Config{Experiment: "nope", Steps: 1}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := Run(Config{Aggregator: "nope", Steps: 1}); err == nil {
		t.Fatal("unknown aggregator accepted")
	}
	if _, err := Run(Config{Optimizer: "nope", Steps: 1, Workers: 3, Aggregator: "average"}); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
	if _, err := Run(Config{Attacks: map[int]string{0: "nope"}, Workers: 3, Aggregator: "average", Steps: 1}); err == nil {
		t.Fatal("unknown attack accepted")
	}
}

// Figure 7 shape: corrupted-data worker destroys averaging but not
// AggregaThor.
func TestRunCorruptedDataFig7(t *testing.T) {
	base := Config{
		Workers: 7, Batch: 32, Optimizer: "momentum", LR: 0.1,
		Steps: 300, EvalEvery: 50, Seed: 2,
		CorruptData: []int{3},
	}
	avg := base
	avg.Aggregator = "average"
	avgRes, err := Run(avg)
	if err != nil {
		t.Fatal(err)
	}
	robust := base
	robust.Aggregator = "multi-krum"
	robust.F = 1
	robRes, err := Run(robust)
	if err != nil {
		t.Fatal(err)
	}
	// Chance is 0.1 on the 10-class task.
	if robRes.FinalAccuracy < 0.35 {
		t.Fatalf("multi-krum accuracy %v under corrupted data", robRes.FinalAccuracy)
	}
	if avgRes.FinalAccuracy >= robRes.FinalAccuracy {
		t.Fatalf("averaging (%v) should underperform multi-krum (%v) under corruption",
			avgRes.FinalAccuracy, robRes.FinalAccuracy)
	}
}

// Vanilla server + hijacking worker: the §3.2 vulnerability.
func TestRunVanillaHijack(t *testing.T) {
	res, err := Run(Config{
		Workers: 5, Aggregator: "multi-krum", F: 1,
		Optimizer: "momentum", LR: 0.1, Batch: 16,
		Steps: 30, EvalEvery: 10, Seed: 3,
		Vanilla: true, HijackWorkers: []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hijacked {
		t.Fatal("vanilla run must record the hijack")
	}
	if res.FinalAccuracy > 0.4 {
		t.Fatalf("hijacked training should not learn, accuracy %v", res.FinalAccuracy)
	}
}

func TestRunPatchedRefusesHijack(t *testing.T) {
	res, err := Run(Config{
		Workers: 7, Aggregator: "multi-krum", F: 1,
		Optimizer: "momentum", LR: 0.1, Batch: 32,
		Steps: 300, EvalEvery: 50, Seed: 3,
		HijackWorkers: []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hijacked {
		t.Fatal("patched run must refuse the hijack")
	}
	// Chance is 0.1 on the 10-class task; 0.35 demonstrates learning
	// proceeded despite the refused hijack attempts.
	if res.FinalAccuracy < 0.35 {
		t.Fatalf("accuracy %v", res.FinalAccuracy)
	}
}

// Figure 8 shape: UDP links with random-fill recoup still converge under a
// robust GAR.
func TestRunUDPLossyLinks(t *testing.T) {
	res, err := Run(Config{
		Workers: 9, Aggregator: "multi-krum", F: 2,
		Optimizer: "momentum", LR: 0.1, Batch: 32,
		Steps: 300, EvalEvery: 50, Seed: 4,
		UDPLinks: 2, DropRate: 0.10, Recoup: transport.FillRandom,
		Protocol: simnet.UDP,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Chance is 0.1; lossy links with random recoup still learn.
	if res.FinalAccuracy < 0.4 {
		t.Fatalf("accuracy %v over lossy UDP", res.FinalAccuracy)
	}
}

// UDP vs TCP costing under loss: same training, UDP clock runs faster.
func TestRunProtocolAffectsClockUnderLoss(t *testing.T) {
	base := Config{
		Workers: 5, Aggregator: "average",
		Optimizer: "sgd", LR: 0.1, Batch: 16,
		Steps: 20, EvalEvery: 10, Seed: 5,
		DropRate: 0.10,
	}
	tcp := base
	tcp.Protocol = simnet.TCP
	tcpRes, err := Run(tcp)
	if err != nil {
		t.Fatal(err)
	}
	udp := base
	udp.Protocol = simnet.UDP
	udp.UDPLinks = 1
	udp.Recoup = transport.FillRandom
	udpRes, err := Run(udp)
	if err != nil {
		t.Fatal(err)
	}
	tcpLast, _ := tcpRes.Accuracy.Last()
	udpLast, _ := udpRes.Accuracy.Last()
	if udpLast.Time >= tcpLast.Time {
		t.Fatalf("UDP clock (%v) should beat TCP clock (%v) at 10%% loss", udpLast.Time, tcpLast.Time)
	}
}

func TestRunDracoBaseline(t *testing.T) {
	res, err := Run(Config{
		Workers: 9, F: 1, Aggregator: "draco",
		Optimizer: "momentum", LR: 0.1, Batch: 32,
		Steps: 100, EvalEvery: 25, Seed: 6,
		Attacks: map[int]string{4: "reversed"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.5 {
		t.Fatalf("draco accuracy %v", res.FinalAccuracy)
	}
}

func TestRunDracoUnsupportedOptions(t *testing.T) {
	_, err := Run(Config{Aggregator: "draco", Workers: 9, F: 1, UDPLinks: 1, Steps: 1})
	if !errors.Is(err, ErrDracoUnsupported) {
		t.Fatalf("want ErrDracoUnsupported, got %v", err)
	}
}

// The paper's headline overheads: multi-krum and bulyan cost more wall-clock
// per step than plain averaging, bulyan most of all.
func TestRunOverheadOrdering(t *testing.T) {
	timeOf := func(agg string, f int) float64 {
		res, err := Run(Config{
			Workers: 19, F: f, Aggregator: agg,
			Optimizer: "sgd", LR: 0.2, Batch: 16,
			Steps: 10, EvalEvery: 5, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		last, _ := res.Accuracy.Last()
		return last.Time.Seconds()
	}
	avg := timeOf("average", 0)
	mk := timeOf("multi-krum", 4)
	bl := timeOf("bulyan", 4)
	if !(avg < mk && mk < bl) {
		t.Fatalf("overhead ordering violated: avg=%v mk=%v bulyan=%v", avg, mk, bl)
	}
}

func TestThroughputScanShapes(t *testing.T) {
	counts := []int{2, 6, 10, 14, 18}
	tf := ThroughputScan("average", 0, counts, 1_756_426, 2e8, 100)
	bl := ThroughputScan("bulyan", 2, counts, 1_756_426, 2e8, 100)
	draco := ThroughputScan("draco", 4, counts, 1_756_426, 2e8, 100)
	// Throughput grows with workers for the cheap GAR.
	if tf[18] <= tf[2] {
		t.Fatal("average throughput should grow with workers")
	}
	// Bulyan lags average at scale.
	if bl[18] >= tf[18] {
		t.Fatalf("bulyan (%v) should lag average (%v) at 18 workers", bl[18], tf[18])
	}
	// Draco sits far below the TensorFlow-based systems.
	if draco[18] >= tf[18]/4 {
		t.Fatalf("draco (%v) should sit far below average (%v)", draco[18], tf[18])
	}
}

func TestMeasuredAggregationPath(t *testing.T) {
	res, err := Run(Config{
		Experiment: "features-mlp",
		Workers:    7, F: 1, Aggregator: "multi-krum",
		Optimizer: "sgd", LR: 0.2, Batch: 8,
		Steps: 5, EvalEvery: 5, Seed: 8,
		MeasureAgg: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Aggregation <= 0 {
		t.Fatal("measured aggregation time missing")
	}
}
