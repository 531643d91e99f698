package core

import (
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/gar"
	"aggregathor/internal/ps"
)

// generatedConfig draws one small legal-looking experiment: 1 to 7 workers, a
// rule the worker count fits, at most one attacker, and a network in the
// campaign's string forms — at most one of the slow and churn schedules, a
// lossy or clean link, any recoup policy name or none (fill-random) and
// either wire width. Validate decides per backend what it accepts.
func generatedConfig(rng *rand.Rand) Config {
	rules := []string{"average", "median", "trimmed-mean", "mean-around-median", "multi-krum", "bulyan"}
	attacks := []string{"random", "reversed", "negative-sum", "non-finite", "mimic", "little-is-enough", "omniscient"}
	policies := []string{"", "drop-gradient", "fill-nan", "fill-random"}
	cfg := Config{
		Workers: 1 + rng.Intn(7), Batch: 4, Steps: 12, EvalEvery: 12, LR: 5e-3,
		Seed: rng.Int63n(1000), Network: Network{Recoup: policies[rng.Intn(len(policies))]},
	}
	for {
		cfg.Aggregator, cfg.F = rules[rng.Intn(len(rules))], rng.Intn(3)
		rule, err := gar.New(cfg.Aggregator, cfg.F)
		if err != nil {
			panic(err)
		}
		if info, ok := rule.(gar.ByzantineInfo); !ok || cfg.Workers >= info.MinWorkers() {
			break
		}
	}
	if rng.Intn(2) == 0 {
		cfg.Attacks = map[int]string{rng.Intn(cfg.Workers): attacks[rng.Intn(len(attacks))]}
	}
	switch rng.Intn(4) {
	case 1:
		cfg.Network.AsyncConfig = ps.AsyncConfig{Quorum: rng.Intn(cfg.Workers + 1), Staleness: rng.Intn(3), SlowRate: 0.3 * float64(rng.Intn(2))}
	case 2, 3:
		cfg.Network.Churn = &ps.ChurnConfig{Rate: 0.2 + 0.4*rng.Float64(), DownSteps: 1 + rng.Intn(6), MaxRejoins: rng.Intn(11)}
	}
	if rng.Intn(3) == 0 {
		cfg.Network.DropRate = 0.2
	}
	if rng.Intn(3) == 0 {
		cfg.Network.WireFormat = "float32"
	}
	return cfg
}

// TestGeneratedConfigsAgreeAcrossBackends runs seeded generated configs on
// every backend whose Validate accepts them — the in-process one with every
// worker on its datagram link (udpLinks -1), which is the udp backend's trajectory at any
// drop rate — and requires each run to succeed with the same run totals,
// the same outcome for every slot of every round, and the same final
// accuracy and final parameters, bit for bit.
func TestGeneratedConfigsAgreeAcrossBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	compared := 0
	for i := 0; i < 250; i++ {
		cfg := generatedConfig(rng)
		var first *Result
		var firstBackend string
		for _, backend := range []string{BackendInProcess, BackendTCP, BackendUDP} {
			run := cfg
			run.Network.Backend = backend
			if backend == BackendInProcess {
				run.Network.UDPLinks = -1
			}
			if run.Validate() != nil {
				continue
			}
			res, err := Run(run)
			switch {
			case err != nil:
				t.Errorf("config %d %+v on %s: %v", i, cfg, backend, err)
			case first == nil:
				first, firstBackend = res, backend
			case res.Totals != first.Totals:
				t.Errorf("config %d %+v: totals %+v on %s, %+v on %s", i, cfg, res.Totals, backend, first.Totals, firstBackend)
			case res.slots != first.slots:
				t.Errorf("config %d %+v: the rounds' slot outcomes on %s differ from %s's", i, cfg, backend, firstBackend)
			case math.Float64bits(res.FinalAccuracy) != math.Float64bits(first.FinalAccuracy):
				t.Errorf("config %d %+v: final accuracy %v on %s, %v on %s", i, cfg, res.FinalAccuracy, backend, first.FinalAccuracy, firstBackend)
			case paramsSHA256(res.params) != paramsSHA256(first.params):
				t.Errorf("config %d %+v: the final parameters on %s differ from %s's", i, cfg, backend, firstBackend)
			default:
				if backend != firstBackend {
					compared++
				}
			}
		}
	}
	if compared < 100 {
		t.Fatalf("only %d runs were compared with another backend's", compared)
	}
}

// TestInfeasibleRuleSameErrorOnEveryBackend: a rule the worker count does not
// fit fails with one error on every backend, so an infeasible campaign cell
// records the same string whichever backend ran it.
func TestInfeasibleRuleSameErrorOnEveryBackend(t *testing.T) {
	cases := []struct {
		aggregator string
		f, workers int
		want       string
	}{
		{"bulyan", 2, 5, "ps: bulyan(f=2) needs 11 workers, got 5"},
		{"multi-krum", 1, 4, "ps: multi-krum(f=1) needs 5 workers, got 4"},
		{"mean-around-median", 2, 3, "ps: mean-around-median(f=2) needs 5 workers, got 3"},
		{"trimmed-mean", 1, 2, "ps: trimmed-mean(f=1) needs 3 workers, got 2"},
	}
	for _, tc := range cases {
		for _, backend := range []string{BackendInProcess, BackendTCP, BackendUDP} {
			_, err := Run(Config{Network: Network{Backend: backend}, Aggregator: tc.aggregator, F: tc.f, Workers: tc.workers, Batch: 4, Steps: 1})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s(f=%d) on %d workers, %s backend: error %v, want %q", tc.aggregator, tc.f, tc.workers, backend, err, tc.want)
			}
		}
	}
}
