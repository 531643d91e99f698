package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
)

// options select one run of one workload.
type options struct {
	seed    int64
	seconds float64 // timed window
	trace   bool    // decorators on, probes run, per-layer metrics reported
	short   bool    // 5 timed rounds, 2 warm-up rounds, one set-up: smoke only
	outDir  string  // trace files and run reports
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the driver's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a result with what identifies the run and what its output checks
// found; -compare and the RESULTS.json writer read these.
type report struct {
	Workload         string   `json:"workload"`
	Seed             int64    `json:"seed"`
	Seconds          float64  `json:"seconds"`
	Trace            bool     `json:"trace"`
	TrajectorySHA256 string   `json:"trajectory_sha256"`
	Violations       []string `json:"violations,omitempty"`
	Host             host     `json:"host"`
	result
}

// host is what the yardstick read during the run and what the bounded time
// metrics read before they were scaled by it (yardstick.go).
type host struct {
	YardMS      float64            `json:"yard_ms"`       // median copy during the timed rounds
	BusyShare   float64            `json:"busy_share"`    // CPU time over wall time of the timed rounds
	Scale       float64            `json:"scale"`         // hostScale of the two: times are multiplied by it
	SetupYardMS float64            `json:"setup_yard_ms"` // the same three for the set-ups
	SetupBusy   float64            `json:"setup_busy_share"`
	SetupScale  float64            `json:"setup_scale"`
	Raw         map[string]float64 `json:"raw"` // the scaled metrics as measured
}

const (
	setupReps = 25 // setup_s is their median
	segments  = 10 // rounds_per_s and round_ms_p95 are medians over this many runs of rounds
)

// runWorkload deploys the workload, checks its outputs, measures rounds for
// the timed window and reports end-to-end metrics (untraced) or per-layer
// metrics (traced).
func runWorkload(w workload, o options) (*report, error) {
	rep := &report{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	reps, warm := setupReps, warmupRounds
	if o.short {
		reps, warm = 1, 2
	}

	// Set-up pays dataset, model, constructor and Start in full, from a
	// freshly collected heap. The first one is the deployment that gets
	// measured; the repetitions behind setup_s's median run after the timed
	// rounds, because a process's first half second runs on cores that have
	// not yet clocked up and reads up to twice as slow.
	yard, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer yard.close()
	setups := make([]float64, 0, reps)
	setupYard := make([]float64, 0, reps)
	var setupCPU float64
	timedDeploy := func() (*deployment, error) {
		runtime.GC()
		setupYard = append(setupYard, yard.measure())
		cpu := cpuSeconds()
		start := time.Now()
		dep, err := deploy(w, o.seed, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(setups), err)
		}
		end := time.Now()
		setups = append(setups, end.Sub(start).Seconds())
		setupCPU += cpuSeconds() - cpu
		if rec != nil {
			rec.add(spanStart, "", dep.constructed, end)
		}
		return dep, nil
	}
	dep, err := timedDeploy()
	if err != nil {
		return nil, err
	}
	defer dep.close() // error paths only; the measured close below makes this a no-op

	// Warm-up, hashed: the trajectory of these rounds is a pure function of
	// the seed, so the hash is comparable across runs, passes and commits.
	hash := sha256.New()
	var firstLoss float64
	for i := 0; i < warm; i++ {
		res, err := dep.step()
		if err != nil {
			return nil, fmt.Errorf("warm-up round %d: %w", i, err)
		}
		if roundFailed(w, res, 0) {
			violate("warm-up round %d: received %d of %d, skipped=%v", i, res.Received, workers, res.Skipped)
		}
		hashFloats(hash, res.Loss)
		firstLoss += res.Loss / float64(warm)
	}
	warmParams := dep.params()
	hashFloats(hash, warmParams...)
	rep.TrajectorySHA256 = hex.EncodeToString(hash.Sum(nil))

	if w.lossless() {
		twin, err := parityTwin(w, o.seed)
		if err != nil {
			return nil, fmt.Errorf("parity twin: %w", err)
		}
		for i := 0; i < warm; i++ {
			if _, err := twin.step(); err != nil {
				return nil, fmt.Errorf("parity twin round %d: %w", i, err)
			}
		}
		if i := firstDifference(warmParams, twin.params()); i >= 0 {
			violate("parity: parameter %d differs from the in-process twin after %d rounds", i, warm)
		}
	}
	goroutines := runtime.NumGoroutine()

	// Timed rounds, closed loop: the next Step is issued when the previous
	// one returned. Between rounds, every yardEvery, the yardstick is read.
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window = window * 3 / 10 // the probes take the rest
	}
	durMS := make([]float64, 0, 1<<16)
	losses := make([]float64, 0, 1<<16)
	yardMS := make([]float64, 0, 1<<10)
	var deadlineRounds, shortRounds int
	var nextYard time.Duration
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, yard0 := cpuSeconds(), yard.spent
	for begin := time.Now(); ; {
		i := len(durMS)
		elapsed := time.Since(begin)
		if o.short && i == 5 || !o.short && elapsed >= window {
			break
		}
		if elapsed >= nextYard {
			yardMS = append(yardMS, yard.measure())
			nextYard = elapsed + yardEvery
		}
		if rec != nil {
			rec.round.Store(int64(i))
		}
		t0 := time.Now()
		res, err := dep.step()
		t1 := time.Now()
		if rec != nil {
			rec.add(spanRound, "", t0, t1)
		}
		d := t1.Sub(t0)
		durMS = append(durMS, float64(d.Nanoseconds())/1e6)
		if err != nil {
			// A Step error leaves the cluster unusable: count it and stop.
			rep.Failed++
			violate("round %d: %v", i, err)
			break
		}
		losses = append(losses, res.Loss)
		if roundFailed(w, res, d) {
			rep.Failed++
			if deadlineFired(d) {
				deadlineRounds++
			} else {
				shortRounds++
			}
		}
	}
	cpuTimed := cpuSeconds() - cpu0 - (yard.spent - yard0).Seconds()
	runtime.ReadMemStats(&ms1)
	if rec != nil {
		rec.round.Store(-1)
	}
	rounds := len(durMS)
	rep.Attempted = rounds

	closeStart := time.Now()
	if err := dep.close(); err != nil {
		violate("close: %v", err)
	}
	if rec != nil {
		rec.add(spanClose, "", closeStart, time.Now())
	}

	for len(setups) < reps {
		d, err := timedDeploy()
		if err != nil {
			return nil, err
		}
		if err := d.close(); err != nil {
			return nil, fmt.Errorf("close after set-up %d: %w", len(setups)-1, err)
		}
	}

	if rep.Failed > 0 {
		violate("%d of %d timed rounds failed (%d deadline, %d short)", rep.Failed, rounds, deadlineRounds, shortRounds)
	}
	if w.DropRate > 0 && len(losses) >= 2*warm {
		// The lossy deployment must still learn through drops and forgeries.
		var last float64
		for _, l := range losses[len(losses)-warm:] {
			last += l / float64(warm)
		}
		if !(last < 0.5*firstLoss) {
			violate("loss did not fall: first %d rounds mean %.4f, last %d mean %.4f", warm, firstLoss, warm, last)
		}
	}

	// The bounded time metrics, as measured and then on the nominal host.
	var wallTimed, wallSetups float64
	for _, d := range durMS {
		wallTimed += d / 1e3
	}
	for _, s := range setups {
		wallSetups += s
	}
	h := host{YardMS: median(yardMS), BusyShare: cpuTimed / wallTimed,
		SetupYardMS: median(setupYard), SetupBusy: setupCPU / wallSetups}
	h.Scale, h.SetupScale = hostScale(h.BusyShare, h.YardMS), hostScale(h.SetupBusy, h.SetupYardMS)
	h.Raw = map[string]float64{
		"rounds_per_s":     medianSegmentRate(durMS, segments),
		"round_ms_p50":     percentile(durMS, 50),
		"round_ms_p95":     medianSegmentPercentile(durMS, segments, 95),
		"cpu_ms_per_round": cpuTimed * 1e3 / float64(rounds),
		"setup_s":          median(setups),
	}
	rep.Host = h
	rate := h.Raw["rounds_per_s"] / h.Scale
	if !o.trace {
		rep.Metrics = map[string]metric{
			"rounds_per_s":       {rate, "rounds/s"},
			"round_ms_p50":       {h.Raw["round_ms_p50"] * h.Scale, "ms"},
			"round_ms_p95":       {h.Raw["round_ms_p95"] * h.Scale, "ms"},
			"cpu_ms_per_round":   {h.Raw["cpu_ms_per_round"] * hostScale(1, h.YardMS), "ms"},
			"allocs_per_round":   {float64(ms1.Mallocs-ms0.Mallocs) / float64(rounds), "count"},
			"alloc_kb_per_round": {float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e3 / float64(rounds), "KB"},
			"peak_rss_mb":        {peakRSSMB(), "MB"},
			"setup_s":            {h.Raw["setup_s"] * h.SetupScale, "s"},
		}
	} else {
		rep.Metrics = spanMetrics(w, rec, rounds)
		rep.Metrics["trace.rounds_per_s"] = metric{rate, "rounds/s"}
		rep.Metrics["cluster.goroutines"] = metric{float64(goroutines), "count"}
		rep.Metrics["cluster.deadline_rounds"] = metric{float64(deadlineRounds), "count"}
		rep.Metrics["cluster.short_rounds"] = metric{float64(shortRounds), "count"}
		budget := time.Duration(o.seconds * float64(time.Second) / 50)
		if o.short {
			budget = 0
		}
		if err := runProbes(w, o.seed, budget, rep.Metrics); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		if err := rec.writeJSONL(filepath.Join(o.outDir, "trace-"+w.Name+".jsonl")); err != nil {
			return nil, err
		}
	}
	rep.Correct = len(rep.Violations) == 0
	return rep, nil
}

func deadlineFired(d time.Duration) bool { return d >= roundTimeout*9/10 }

// roundFailed is the per-round output check: the deadline fired, the round
// was skipped, or — where nothing is scheduled to drop — a slot stayed empty.
func roundFailed(w workload, res *ps.StepResult, d time.Duration) bool {
	return deadlineFired(d) || res.Skipped || (w.DropRate == 0 && res.Received < workers)
}

func hashFloats(h io.Writer, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:]) // hash.Hash.Write never fails
	}
}

// firstDifference returns the first index at which a and b differ bit for
// bit, or -1.
func firstDifference(a, b tensor.Vector) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(p/100*float64(len(s))))-1, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianSegmentRate cuts the rounds into k runs of equal count and returns
// the median run's rounds per second, which one noisy burst cannot move.
func medianSegmentRate(durMS []float64, k int) float64 {
	k = min(k, len(durMS))
	rates := make([]float64, k)
	for s := 0; s < k; s++ {
		lo, hi := s*len(durMS)/k, (s+1)*len(durMS)/k
		var ms float64
		for _, d := range durMS[lo:hi] {
			ms += d
		}
		rates[s] = float64(hi-lo) / (ms / 1e3)
	}
	return median(rates)
}

// medianSegmentPercentile is the median over the same k runs of each run's
// p-th percentile: the tail of a typical stretch of the window, where the
// percentile of all rounds would be the tail of its worst stretch.
func medianSegmentPercentile(durMS []float64, k int, p float64) float64 {
	k = min(k, len(durMS))
	ps := make([]float64, k)
	for s := 0; s < k; s++ {
		ps[s] = percentile(durMS[s*len(durMS)/k:(s+1)*len(durMS)/k], p)
	}
	return median(ps)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads ru_maxrss, which Linux reports in KiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// spanMetrics derives the in-round layer metrics of a traced run: per-round
// time inside the GAR and optimizer decorators and the round's self time —
// what is left once the union of its child spans is taken out.
func spanMetrics(w workload, rec *recorder, rounds int) map[string]metric {
	var starts, closes []float64
	roundSpans := make([]span, rounds)
	children := make([][]span, rounds)
	for _, s := range rec.spans {
		ms := float64(s.EndNS-s.StartNS) / 1e6
		switch {
		case s.Name == spanStart:
			starts = append(starts, ms)
		case s.Name == spanClose:
			closes = append(closes, ms)
		case s.Round < 0 || s.Round >= rounds:
		case s.Name == spanRound:
			roundSpans[s.Round] = s
		default:
			children[s.Round] = append(children[s.Round], s)
		}
	}
	var roundNS, selfNSum, garNS, optNS int64
	var garCalls, optCalls int
	for i, r := range roundSpans {
		roundNS += r.EndNS - r.StartNS
		selfNSum += selfNS(r, children[i])
		for _, c := range children[i] {
			d := c.EndNS - c.StartNS
			switch c.Name {
			case spanGAR:
				garNS += d
				garCalls++
			case spanOpt:
				optNS += d
				optCalls++
			}
		}
	}
	perRoundMS := func(ns int64) float64 { return float64(ns) / 1e6 / float64(rounds) }
	m := map[string]metric{
		"gar.round_ms":          {perRoundMS(garNS), "ms"},
		"gar.round_share":       {float64(garNS) / float64(roundNS), "ratio"},
		"gar.calls":             {float64(garCalls), "count"},
		"gar.errors":            {float64(rec.garErrors), "count"},
		"opt.step_ms":           {float64(optNS) / 1e6 / float64(max(optCalls, 1)), "ms"},
		"opt.round_share":       {float64(optNS) / float64(roundNS), "ratio"},
		"cluster.start_ms":      {median(starts), "ms"},
		"cluster.close_ms":      {median(closes), "ms"},
		"ps.round_self_ms":      {0, "ms"},
		"cluster.round_self_ms": {0, "ms"},
	}
	// The in-process round belongs to ps, a socket round to cluster; the
	// other layer does not run and reads 0.
	self := metric{perRoundMS(selfNSum), "ms"}
	if w.Backend == backendInproc {
		m["ps.round_self_ms"] = self
	} else {
		m["cluster.round_self_ms"] = self
	}
	return m
}
