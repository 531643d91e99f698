// The paper's qualitative claims as one table. TestPaperClaims checks every
// row at five fixed seeds and logs one verdict line a row; BenchmarkFigures
// reports every row's metric at the first seed, so a figure exhibit and the
// claim it illustrates are the same runs:
//
//	go test -run TestPaperClaims -v .
//	go test -run=NONE -bench Figures -benchtime=1x .
package aggregathor

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"aggregathor/internal/core"
	"aggregathor/internal/transport"
)

// claimSeeds are the seeds every row runs at; the exhibits run the first.
var claimSeeds = []int64{1, 2, 3, 4, 5}

// run is one named configuration of a claim.
type run struct {
	name string
	cfg  core.Config
}

// claim is one qualitative claim: the runs it compares, the metric it reads
// off each, and the inequality over them. breaks lists the seeds where the
// inequality fails, each with the reason; an unlisted seed that breaks it
// and a listed seed that holds both fail the test.
type claim struct {
	name string // the subtest's and the exhibit's name
	ref  string // where the claim is made
	says string // the inequality, in words
	runs func(seed int64) []run
	unit string // what read returns, as the exhibit reports it
	read func(*core.Result) float64
	// holds judges one seed's runs: m is read of each run, r the runs.
	holds  func(m map[string]float64, r map[string]*core.Result) bool
	breaks map[int64]string
	// benchBatch, when set, is the exhibit's mini-batch: the paper's scale
	// where it costs too much to run at five seeds.
	benchBatch int
}

// paperRun is the evaluation setting every row starts from: the paper's 19
// workers, momentum at learning rate 0.1, mini-batch 32, 80 steps.
func paperRun(seed int64, aggregator string, f int) core.Config {
	return core.Config{
		Workers: 19, F: f, Aggregator: aggregator,
		Optimizer: "momentum", LR: 0.1, Batch: 32,
		Steps: 80, EvalEvery: 20, Seed: seed,
	}
}

func finalAccuracy(r *core.Result) float64 { return r.FinalAccuracy }

// simSeconds is the simulated clock at the last evaluation.
func simSeconds(r *core.Result) float64 {
	last, _ := r.Accuracy.Last()
	return last.Time.Seconds()
}

var claims = []claim{
	{
		name: "Fig3_Overhead", ref: "§4, Figure 3",
		says: "simulated time of 10 steps: tf < average < multi-krum < bulyan (f=4)",
		runs: func(seed int64) []run {
			cfg := func(agg string, f int) core.Config {
				c := paperRun(seed, agg, f)
				c.Batch, c.Steps, c.EvalEvery = 16, 10, 5
				return c
			}
			return []run{{"tf", cfg("tf", 0)}, {"average", cfg("average", 0)},
				{"multi-krum", cfg("multi-krum", 4)}, {"bulyan", cfg("bulyan", 4)}}
		},
		unit: "sim_s", read: simSeconds,
		holds: func(m map[string]float64, _ map[string]*core.Result) bool {
			return m["tf"] < m["average"] && m["average"] < m["multi-krum"] && m["multi-krum"] < m["bulyan"]
		},
		benchBatch: 250,
	},
	{
		name: "Fig6_ImpactOfF", ref: "§4, Figure 6",
		says: "accuracy: multi-krum f=4 >= f=1, bulyan f=4 < f=1",
		runs: func(seed int64) []run {
			return []run{{"multi-krum_f1", paperRun(seed, "multi-krum", 1)}, {"multi-krum_f4", paperRun(seed, "multi-krum", 4)},
				{"bulyan_f1", paperRun(seed, "bulyan", 1)}, {"bulyan_f4", paperRun(seed, "bulyan", 4)}}
		},
		unit: "final_accuracy", read: finalAccuracy,
		holds: func(m map[string]float64, _ map[string]*core.Result) bool {
			return m["multi-krum_f4"] >= m["multi-krum_f1"] && m["bulyan_f4"] < m["bulyan_f1"]
		},
		// The gaps that break are a few hundredths, against about 0.3 between
		// seeds at 80 steps: noise can flip their sign.
		breaks: map[int64]string{
			2: "bulyan f=4 beats f=1 by 0.02",
			3: "multi-krum f=4 trails f=1 by 0.045",
		},
	},
	{
		name: "Fig7_CorruptedData", ref: "§4, Figure 7",
		says: "1 corrupted-data worker: multi-krum (f=1) > average, >= 0.35",
		runs: func(seed int64) []run {
			avg, mk := paperRun(seed, "average", 0), paperRun(seed, "multi-krum", 1)
			avg.CorruptData, mk.CorruptData = []int{2}, []int{2}
			return []run{{"average", avg}, {"multi-krum", mk}}
		},
		unit: "final_accuracy", read: finalAccuracy,
		holds: func(m map[string]float64, _ map[string]*core.Result) bool {
			return m["multi-krum"] > m["average"] && m["multi-krum"] >= 0.35
		},
	},
	{
		name: "Fig8a_UDPNoDrop", ref: "§3.3, Figure 8(a)",
		says: "0% drop on 8 links: the 3 recoup policies give identical series",
		runs: func(seed int64) []run {
			var out []run
			for _, p := range []transport.RecoupPolicy{transport.DropGradient, transport.FillNaN, transport.FillRandom} {
				c := paperRun(seed, "multi-krum", 8)
				c.Network = core.Network{UDPLinks: 8, Recoup: p.String(), Protocol: "udp"}
				out = append(out, run{p.String(), c})
			}
			return out
		},
		unit: "final_accuracy", read: finalAccuracy,
		holds: func(_ map[string]float64, r map[string]*core.Result) bool {
			a := r[transport.DropGradient.String()]
			for _, p := range []transport.RecoupPolicy{transport.FillNaN, transport.FillRandom} {
				if b := r[p.String()]; !slices.Equal(a.Accuracy.Points, b.Accuracy.Points) || !slices.Equal(a.LossVsStep.Points, b.LossVsStep.Points) {
					return false
				}
			}
			return true
		},
	},
	{
		name: "Fig8b_UDPDrop10", ref: "§3.3, Figure 8(b)",
		says: "10% drop: TCP's clock >= 6x lossyMPI's (8 links); lossyMPI >= 0.4",
		runs: func(seed int64) []run {
			// 300 steps, the length the 0.4 floor is set for.
			udp, tcp := paperRun(seed, "multi-krum", 8), paperRun(seed, "multi-krum", 8)
			udp.Steps, tcp.Steps = 300, 300
			udp.Network = core.Network{UDPLinks: 8, DropRate: 0.10, Recoup: "fill-random", Protocol: "udp"}
			tcp.Network = core.Network{DropRate: 0.10, Protocol: "tcp"}
			return []run{{"lossyMPI", udp}, {"tcp", tcp}}
		},
		unit: "sim_s", read: simSeconds,
		holds: func(m map[string]float64, r map[string]*core.Result) bool {
			return m["tcp"] >= 6*m["lossyMPI"] && r["lossyMPI"].FinalAccuracy >= 0.4
		},
	},
	{
		name: "Sec3.2_Hijack", ref: "§3.2",
		says: "a hijacker: vanilla is hijacked, <= 0.2; patched refuses, >= 0.35",
		runs: func(seed int64) []run {
			// 300 steps, the length the 0.35 floor is set for.
			vanilla, patched := paperRun(seed, "multi-krum", 1), paperRun(seed, "multi-krum", 1)
			vanilla.Steps, patched.Steps = 300, 300
			vanilla.Vanilla = true
			vanilla.HijackWorkers, patched.HijackWorkers = []int{2}, []int{2}
			return []run{{"vanilla", vanilla}, {"patched", patched}}
		},
		unit: "final_accuracy", read: finalAccuracy,
		holds: func(m map[string]float64, r map[string]*core.Result) bool {
			return r["vanilla"].Hijacked && m["vanilla"] <= 0.2 && !r["patched"].Hijacked && m["patched"] >= 0.35
		},
	},
	{
		name: "Sec6_ReplicatedServer", ref: "§6",
		says: "n=7, 1 lying replica of 4: accuracy = one server's, >= 0.35",
		runs: func(seed int64) []run {
			single := paperRun(seed, "multi-krum", 1)
			single.Workers = 7
			replicated := single
			replicated.ServerReplicas, replicated.ByzantineReplicas = 4, []int{2}
			return []run{{"single", single}, {"replicated", replicated}}
		},
		unit: "final_accuracy", read: finalAccuracy,
		holds: func(m map[string]float64, _ map[string]*core.Result) bool {
			return m["replicated"] == m["single"] && m["replicated"] >= 0.35
		},
	},
	{
		name: "Blanchard_LinearRule", ref: "Blanchard et al. 2017, Lemma 1",
		says: "average: 1 reversed worker of 19 gives <= 0.2, none >= 0.3",
		runs: func(seed int64) []run {
			attacked := paperRun(seed, "average", 0)
			attacked.Attacks = map[int]string{18: "reversed"}
			return []run{{"clean", paperRun(seed, "average", 0)}, {"reversed", attacked}}
		},
		unit: "final_accuracy", read: finalAccuracy,
		holds: func(m map[string]float64, _ map[string]*core.Result) bool {
			return m["reversed"] <= 0.2 && m["clean"] >= 0.3
		},
	},
	{
		name: "LIE_KrumFamily", ref: "Baruch et al. 2019",
		says: "4 LIE workers of 19 cost multi-krum and bulyan (f=4) accuracy",
		runs: func(seed int64) []run {
			var out []run
			for _, agg := range []string{"multi-krum", "bulyan"} {
				attacked := paperRun(seed, agg, 4)
				attacked.Attacks = map[int]string{15: "little-is-enough", 16: "little-is-enough", 17: "little-is-enough", 18: "little-is-enough"}
				out = append(out, run{agg, paperRun(seed, agg, 4)}, run{agg + "_lie", attacked})
			}
			return out
		},
		unit: "final_accuracy", read: finalAccuracy,
		holds: func(m map[string]float64, _ map[string]*core.Result) bool {
			return m["multi-krum_lie"] < m["multi-krum"] && m["bulyan_lie"] < m["bulyan"]
		},
		// The repository's extension does not hold at this scale: under the
		// attack multi-krum loses accuracy at two seeds of five, bulyan at four.
		breaks: map[int64]string{
			3: "multi-krum gains 0.10",
			4: "both gain",
			5: "multi-krum ties",
		},
	},
}

// measure runs every configuration of c at seed (at the exhibit's
// mini-batch when batch > 0) and reads its metric.
func (c *claim) measure(tb testing.TB, seed int64, batch int) (map[string]float64, map[string]*core.Result) {
	tb.Helper()
	m, r := map[string]float64{}, map[string]*core.Result{}
	for _, x := range c.runs(seed) {
		if batch > 0 {
			x.cfg.Batch = batch
		}
		res, err := core.Run(x.cfg)
		if err != nil {
			tb.Fatalf("%s: %v", x.name, err)
		}
		m[x.name], r[x.name] = c.read(res), res
	}
	return m, r
}

// TestPaperClaims runs every row at every seed in parallel and fails on a
// seed whose verdict is not the listed one: an unlisted break, or a listed
// break that now holds.
func TestPaperClaims(t *testing.T) {
	for i := range claims {
		c := &claims[i]
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			held := make([]bool, len(claimSeeds))
			t.Cleanup(func() { t.Log(c.verdict(held)) })
			for k, seed := range claimSeeds {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					m, r := c.measure(t, seed, 0)
					held[k] = c.holds(m, r)
					t.Logf("%s: holds %v", formatMetrics(m), held[k])
					switch reason, listed := c.breaks[seed]; {
					case !held[k] && !listed:
						t.Errorf("%s does not hold: %s", c.says, formatMetrics(m))
					case held[k] && listed:
						t.Errorf("listed as breaking (%s), but holds: %s", reason, formatMetrics(m))
					}
				})
			}
		})
	}
}

// verdict is the row's one-line summary, as the README lists it.
func (c *claim) verdict(held []bool) string {
	var broke []string
	for k, seed := range claimSeeds {
		if !held[k] {
			broke = append(broke, fmt.Sprintf("seed %d (%s)", seed, c.breaks[seed]))
		}
	}
	v := "holds"
	if len(broke) > 0 {
		v = "breaks at " + strings.Join(broke, "; ")
	}
	return fmt.Sprintf("%s [%s] %s: %s", c.name, c.ref, c.says, v)
}

func formatMetrics(m map[string]float64) string {
	var parts []string
	for name, v := range m {
		parts = append(parts, fmt.Sprintf("%s=%.4g", name, v))
	}
	slices.Sort(parts)
	return strings.Join(parts, " ")
}

// BenchmarkFigures is the figure exhibits: every row's runs at the first
// seed (at the row's benchBatch, where set), each run's metric reported as
// <run>_<unit>, and the row's verdict checked there too.
func BenchmarkFigures(b *testing.B) {
	seed := claimSeeds[0]
	for i := range claims {
		c := &claims[i]
		b.Run(c.name, func(b *testing.B) {
			var m map[string]float64
			var r map[string]*core.Result
			for n := 0; n < b.N; n++ {
				m, r = c.measure(b, seed, c.benchBatch)
			}
			for name, v := range m {
				b.ReportMetric(v, name+"_"+c.unit)
			}
			if _, listed := c.breaks[seed]; c.holds(m, r) == listed {
				b.Errorf("%s: verdict at seed %d is not the listed one: %s", c.says, seed, formatMetrics(m))
			}
		})
	}
}
