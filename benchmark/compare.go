package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

const (
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	regressed  = "regressed"
)

// minPairs is how many runs per side a claimed gain needs (choosing-metrics
// guide, section 8); with fewer the best verdict is unchanged.
const minPairs = 10

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives; 0 for fewer than two values.
func quartileSpread(xs []float64) float64 {
	m := len(xs)
	if m < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// verdict judges side b against side a for one metric on one workload.
// worse is b's median against a's as a share of a's, positive when worse.
func verdict(def metricDef, a, b []float64) (v string, worse float64) {
	sign := 1.0
	if def.Better == higher {
		sign = -1
	}
	ma, mb := median(a), median(b)
	worse = sign * (mb - ma) / ma
	wins, allBetter := 0, true
	for _, x := range b {
		for _, y := range a {
			if sign*(x-y) >= 0 {
				allBetter = false
			}
		}
	}
	pairs := min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	canClaim := pairs >= minPairs
	spreadA := quartileSpread(a)
	switch {
	case canClaim && allBetter:
		return improved, worse
	case max(spreadA, quartileSpread(b)) > def.Bound:
		return unresolved, worse
	case worse > def.Bound:
		return regressed, worse
	case canClaim && 10*wins >= 9*pairs && -worse > spreadA:
		return improved, worse
	}
	return unchanged, worse
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// change, the bound and a verdict, each workload in its own rows. It returns
// an error — exit 1 — on any regressed metric or any rise in the share of
// failed rounds.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(out, "%-20s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := untracedRuns(a, w.Name), untracedRuns(b, w.Name)
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(out, "%-20s no untraced run on both sides (A %d, B %d)\n", w.Name, len(ra), len(rb))
			bad++
			continue
		}
		for _, def := range endToEnd {
			va, vb := values(ra, def.Name), values(rb, def.Name)
			v, worse := verdict(def, va, vb)
			if v == regressed {
				bad++
			}
			change := worse
			if def.Better == higher {
				change = -worse
			}
			fmt.Fprintf(out, "%-20s %-20s %14.4f %14.4f %+8.2f%% %6.0f%%  %s (%d/%d runs, %s is better)\n",
				w.Name, def.Name, median(va), median(vb), 100*change, 100*def.Bound, v, len(va), len(vb), def.Better)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		v := unchanged
		if fb > fa {
			v = regressed
			bad++
		}
		fmt.Fprintf(out, "%-20s %-20s %14.6f %14.6f %9s %7s  %s (any rise regresses)\n", w.Name, "failed_round_share", fa, fb, "", "", v)
		same := "same"
		if ra[0].TrajectorySHA256 != rb[0].TrajectorySHA256 {
			same = "CHANGED: the warm-up arithmetic differs"
		}
		fmt.Fprintf(out, "%-20s %-20s %s\n", w.Name, "trajectory_sha256", same)
	}
	if bad > 0 {
		return errors.New("regression")
	}
	return nil
}

func untracedRuns(rf *resultsFile, workload string) []report {
	var out []report
	for _, r := range rf.Runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []report, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

func failedShare(runs []report) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}
