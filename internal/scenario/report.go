package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// JSON renders the campaign as indented JSON. The encoding is deterministic:
// structs marshal in field order, results are in expansion order, and every
// numeric field is a pure function of the spec and seeds — two executions of
// the same spec produce byte-identical output.
func (c *Campaign) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding campaign: %w", err)
	}
	return append(out, '\n'), nil
}

// garStanding aggregates one rule's runs under one attack.
type garStanding struct {
	gar       string
	runs      int
	errored   int
	diverged  int
	skipped   int
	accSum    float64
	worstAcc  float64
	aggNSSum  int64
	reachedTh int
}

// mean returns the mean final accuracy over scored (non-errored) runs.
func (g *garStanding) mean() float64 {
	n := g.runs - g.errored
	if n <= 0 {
		return math.Inf(-1) // rules with no feasible run rank last
	}
	return g.accSum / float64(n)
}

// Summary renders the human-readable campaign digest: for every attack a
// table ranking the aggregation rules by mean final accuracy across clusters,
// networks and seeds (a diverged run scores its recorded accuracy, typically
// the pre-divergence evaluation; an infeasible run is excluded and counted).
func (c *Campaign) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %q: %d runs (%d GARs x %d attacks x %d clusters x %d networks x %d seeds)\n",
		c.Spec.Name, len(c.Results),
		len(c.Spec.GARs), len(c.Spec.Attacks), len(c.Spec.Clusters), len(c.Spec.Networks), len(c.Spec.Seeds))
	fmt.Fprintf(&b, "experiment %s, %d steps, batch %d, accuracy threshold %.2f\n",
		c.Spec.Experiment, c.Spec.Steps, c.Spec.Batch, c.Spec.Threshold)

	for _, atk := range c.Spec.Attacks {
		standings := map[string]*garStanding{}
		// ranked is built in first-seen order (which follows the
		// deterministic expansion order of c.Results), never by ranging
		// the standings map, so the stable sort below starts from a
		// reproducible permutation.
		var ranked []*garStanding
		for _, res := range c.Results {
			if res.Run.Attack != atk {
				continue
			}
			st, ok := standings[res.Run.GAR]
			if !ok {
				st = &garStanding{gar: res.Run.GAR, worstAcc: math.Inf(1)}
				standings[res.Run.GAR] = st
				ranked = append(ranked, st)
			}
			st.runs++
			if res.Error != "" {
				st.errored++
				continue
			}
			st.accSum += res.FinalAccuracy
			if res.FinalAccuracy < st.worstAcc {
				st.worstAcc = res.FinalAccuracy
			}
			if res.Diverged {
				st.diverged++
			}
			st.skipped += res.SkippedRounds
			st.aggNSSum += res.AggTimePerRoundNS
			if res.StepsToThreshold >= 0 {
				st.reachedTh++
			}
		}
		if len(ranked) == 0 {
			continue
		}
		sort.SliceStable(ranked, func(i, j int) bool {
			mi, mj := ranked[i].mean(), ranked[j].mean()
			if mi != mj {
				return mi > mj
			}
			return ranked[i].gar < ranked[j].gar
		})
		fmt.Fprintf(&b, "\n== attack: %s ==\n", atk)
		fmt.Fprintf(&b, "%-4s %-24s %10s %10s %9s %8s %8s %12s\n",
			"rank", "gar", "mean-acc", "worst-acc", "reach-th", "diverge", "skipped", "agg-ms/rnd")
		for i, st := range ranked {
			scored := st.runs - st.errored
			meanAcc, worst := "-", "-"
			aggMS := "-"
			if scored > 0 {
				meanAcc = fmt.Sprintf("%.4f", st.mean())
				worst = fmt.Sprintf("%.4f", st.worstAcc)
				aggMS = fmt.Sprintf("%.3f", float64(st.aggNSSum)/float64(scored)/1e6)
			}
			fmt.Fprintf(&b, "%-4d %-24s %10s %10s %6d/%-2d %8d %8d %12s\n",
				i+1, st.gar, meanAcc, worst,
				st.reachedTh, scored, st.diverged, st.skipped, aggMS)
			if st.errored > 0 {
				fmt.Fprintf(&b, "     %-24s (%d infeasible run(s) excluded)\n", "", st.errored)
			}
		}
	}

	if wire := c.wireSection(); wire != "" {
		b.WriteString(wire)
	}

	if async := c.asyncSection(); async != "" {
		b.WriteString(async)
	}

	if churn := c.churnSection(); churn != "" {
		b.WriteString(churn)
	}

	if errs := c.errorLines(); len(errs) > 0 {
		fmt.Fprintf(&b, "\n== infeasible runs ==\n")
		for _, line := range errs {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}

// wireSection renders the wire-format accuracy-delta digest: networks that
// are identical in every condition except name and coordinate width are
// paired, and for each pair group the mean final accuracy per format is
// printed with its delta against the group's float64 baseline — the
// accuracy price of halving the gradient bytes, read straight off the
// campaign. Groups with fewer than two formats are omitted; the section
// disappears entirely when the spec sweeps a single wire format.
func (c *Campaign) wireSection() string {
	// Group networks by their condition modulo Name/WireFormat. Marshalling
	// the stripped struct gives a canonical key (struct field order).
	groups := map[string][]Network{}
	var order []string
	for _, n := range c.Spec.Networks {
		stripped := n
		stripped.Name = ""
		stripped.WireFormat = ""
		raw, err := json.Marshal(stripped)
		if err != nil {
			return ""
		}
		key := string(raw)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], n)
	}

	var b strings.Builder
	for _, key := range order {
		nets := groups[key]
		formats := map[string]bool{}
		for _, n := range nets {
			formats[wireName(n.WireFormat)] = true
		}
		if len(formats) < 2 {
			continue
		}
		if b.Len() == 0 {
			fmt.Fprintf(&b, "\n== wire formats ==\n")
			fmt.Fprintf(&b, "%-24s %-10s %10s %10s %6s\n", "network", "wire", "mean-acc", "delta", "runs")
		}
		baseline := math.NaN()
		for _, n := range nets {
			if wireName(n.WireFormat) == "float64" {
				baseline, _ = c.networkMeanAccuracy(n.Name)
				break
			}
		}
		for _, n := range nets {
			mean, scored := c.networkMeanAccuracy(n.Name)
			meanStr, deltaStr := "-", "-"
			if scored > 0 {
				meanStr = fmt.Sprintf("%.4f", mean)
				if wireName(n.WireFormat) != "float64" && !math.IsNaN(baseline) {
					deltaStr = fmt.Sprintf("%+.4f", mean-baseline)
				}
			}
			fmt.Fprintf(&b, "%-24s %-10s %10s %10s %6d\n",
				n.Name, wireName(n.WireFormat), meanStr, deltaStr, scored)
		}
	}
	return b.String()
}

// asyncSection renders the asynchronous-round digest: for every network cell
// with quorum/staleness/slowWorkers set, the effective round rate against the
// simulated clock plus the staleness bookkeeping — gradients admitted stale,
// slots dropped as too stale, and rounds lost to the quorum gate — summed
// over the cell's runs. Reading the rounds/sec column across a lockstep-slow
// cell and its quorum twin is the straggler contrast the mode exists to show.
// The section disappears when no network runs asynchronously.
func (c *Campaign) asyncSection() string {
	var b strings.Builder
	for _, n := range c.Spec.Networks {
		if !n.AsyncConfig.Enabled() {
			continue
		}
		var rpsSum float64
		var admitted, dropped, skipped, scored int
		for _, res := range c.Results {
			if res.Run.Network.Name != n.Name || res.Error != "" {
				continue
			}
			scored++
			rpsSum += res.RoundsPerSec
			admitted += res.AdmittedStale
			dropped += res.DroppedTooStale
			skipped += res.SkippedRounds
		}
		if b.Len() == 0 {
			fmt.Fprintf(&b, "\n== asynchronous rounds ==\n")
			fmt.Fprintf(&b, "%-24s %7s %3s %6s %10s %9s %9s %8s %6s\n",
				"network", "quorum", "tau", "slow", "rounds/s", "adm-stale", "too-stale", "skipped", "runs")
		}
		quorum := "all"
		if n.Quorum > 0 {
			quorum = fmt.Sprintf("%d", n.Quorum)
		}
		rps := "-"
		if scored > 0 {
			rps = fmt.Sprintf("%.2f", rpsSum/float64(scored))
		}
		fmt.Fprintf(&b, "%-24s %7s %3d %6.2f %10s %9d %9d %8d %6d\n",
			n.Name, quorum, n.Staleness, n.SlowRate, rps, admitted, dropped, skipped, scored)
	}
	return b.String()
}

// churnSection renders the worker-churn digest: for every network cell with
// a churn schedule, the crash/rejoin/reconnect bookkeeping plus the rounds
// skipped below the GAR's resilience bound, summed over the cell's runs.
// Every number is a pure function of the seed — reruns print this section
// byte-identically. The section disappears when no network churns.
func (c *Campaign) churnSection() string {
	var b strings.Builder
	for _, n := range c.Spec.Networks {
		if n.Churn == nil || !n.Churn.Enabled() {
			continue
		}
		var crashes, rejoins, attempts, below, scored int
		for _, res := range c.Results {
			if res.Run.Network.Name != n.Name || res.Error != "" {
				continue
			}
			scored++
			crashes += res.Crashes
			rejoins += res.Rejoins
			attempts += res.ReconnectAttempts
			below += res.BelowBoundRounds
		}
		if b.Len() == 0 {
			fmt.Fprintf(&b, "\n== worker churn ==\n")
			fmt.Fprintf(&b, "%-24s %6s %5s %8s %8s %8s %9s %12s %6s\n",
				"network", "rate", "down", "max-rej", "crashes", "rejoined", "redials", "below-bound", "runs")
		}
		fmt.Fprintf(&b, "%-24s %6.2f %5d %8d %8d %8d %9d %12d %6d\n",
			n.Name, n.Churn.Rate, n.Churn.DownSteps, n.Churn.MaxRejoins,
			crashes, rejoins, attempts, below, scored)
	}
	return b.String()
}

// wireName canonicalises the wire-format label ("" means float64).
func wireName(w string) string {
	if w == "" {
		return "float64"
	}
	return w
}

// networkMeanAccuracy returns the mean final accuracy over the scored
// (non-errored) runs of one network condition, and how many were scored.
func (c *Campaign) networkMeanAccuracy(network string) (float64, int) {
	var sum float64
	var n int
	for _, res := range c.Results {
		if res.Run.Network.Name != network || res.Error != "" {
			continue
		}
		sum += res.FinalAccuracy
		n++
	}
	if n == 0 {
		return math.NaN(), 0
	}
	return sum / float64(n), n
}

// errorLines lists errored runs in expansion order.
func (c *Campaign) errorLines() []string {
	var out []string
	for _, res := range c.Results {
		if res.Error != "" {
			out = append(out, fmt.Sprintf("%s: %s", res.Run.ID, res.Error))
		}
	}
	return out
}
