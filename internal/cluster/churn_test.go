package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
)

// churnDeployment builds the 7-worker TCP fixture for the churn tests: the
// Byzantine-matrix task with a crash/rejoin schedule layered on.
func churnDeployment(t *testing.T, rule gar.GAR, byz map[int]string, churn ps.ChurnConfig, seed int64) (*TCPCluster, *data.Dataset, func() *nn.Network) {
	t.Helper()
	ds := data.SyntheticFeatures(300, 10, 3, 50)
	ds.MinMaxScale()
	train, test := ds.Split(0.8)
	factory := func() *nn.Network {
		return nn.NewMLP(10, []int{16}, 3, rand.New(rand.NewSource(51)))
	}
	cl, err := NewTCPCluster(TCPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: factory,
		Workers:      7,
		GAR:          rule,
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.15}},
		Batch:        32,
		Train:        train,
		Byzantine:    byz,
		Churn:        churn,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, test, factory
}

// churnExpectation replays the schedule the way both endpoints do and returns
// the exact counter totals a run must report: crashes, rejoins, and the
// rounds where live membership falls below minWorkers (0 disables the bound).
func churnExpectation(churn ps.ChurnConfig, seed int64, steps, n, minWorkers int) (crashes, rejoins, below int) {
	for s := 0; s < steps; s++ {
		live := 0
		for w := 0; w < n; w++ {
			switch churn.Phase(seed, s, w) {
			case ps.ChurnCrash:
				crashes++
			case ps.ChurnRejoin:
				rejoins++
				live++
			case ps.ChurnLive:
				live++
			}
		}
		if minWorkers > 0 && live < minWorkers {
			below++
		}
	}
	return crashes, rejoins, below
}

// TestTCPClusterChurnConvergence is the tentpole's end-to-end cell: a churn
// schedule crashes workers mid-run (abrupt socket teardown), they reconnect
// through the backoff dialer at their scheduled rejoin rounds, and training
// under multi-krum with a Byzantine worker still converges. The crash/rejoin
// counters reported by StepResults must equal the independent schedule
// replay exactly — they are pure functions of the seed, not of socket
// timing.
func TestTCPClusterChurnConvergence(t *testing.T) {
	churn := ps.ChurnConfig{Rate: 0.03, DownSteps: 2, MaxRejoins: 5}
	const seed, steps = 13, 100
	rule := gar.NewMultiKrum(1)
	minWorkers := rule.MinWorkers()
	wantCrashes, wantRejoins, wantBelow := churnExpectation(churn, seed, steps, 7, minWorkers)
	if wantCrashes == 0 || wantRejoins == 0 {
		t.Fatalf("dead fixture: schedule has %d crashes / %d rejoins", wantCrashes, wantRejoins)
	}
	if wantBelow != 0 {
		t.Fatalf("fixture drift: convergence cell must stay above the safety bound, got %d below-bound rounds", wantBelow)
	}

	cl, test, factory := churnDeployment(t, rule, map[int]string{6: "reversed"}, churn, seed)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var crashes, rejoins, attempts, below int
	for i := 0; i < steps; i++ {
		res, err := cl.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		crashes += res.Crashes
		rejoins += res.Rejoins
		attempts += res.ReconnectAttempts
		if res.BelowBound {
			below++
		}
	}
	if crashes != wantCrashes || rejoins != wantRejoins || below != wantBelow {
		t.Fatalf("counters diverge from schedule replay: crashes %d (want %d), rejoins %d (want %d), belowBound %d (want %d)",
			crashes, wantCrashes, rejoins, wantRejoins, below, wantBelow)
	}
	if attempts != rejoins {
		t.Fatalf("reconnect attempts %d != rejoins %d: a scheduled reconnect should dial exactly once", attempts, rejoins)
	}
	params := cl.Params()
	if !params.IsFinite() {
		t.Fatal("non-finite parameters after churn run")
	}
	model := factory()
	model.SetParamsVector(params)
	if acc := model.Accuracy(test.X, test.Y); acc < 0.7 {
		t.Fatalf("churn run converged to accuracy %v, want >= 0.7", acc)
	}
}

// TestTCPClusterChurnReleasesCrashedConnections is the regression test for
// the server-side socket leak: a crashed worker's connection used to stay
// open (and in the broadcast set) until Close, and every rejoin appended one
// more. With DownSteps 1 a worker rejoins the round after its crash — before
// the dead connection's reader has necessarily reported — which is the worst
// case for the one-live-connection-per-worker rule. The broadcast set must
// never exceed Workers, never hold two connections for one worker, every
// connection a crash retired must be closed before Close, and Close leaves
// no goroutine or descriptor behind (releaseCheck).
func TestTCPClusterChurnReleasesCrashedConnections(t *testing.T) {
	churn := ps.ChurnConfig{Rate: 0.05, DownSteps: 1, MaxRejoins: 50}
	const seed, steps, workers = 13, 80, 7
	crashes, rejoins, _ := churnExpectation(churn, seed, steps, workers, 0)
	if crashes < 5 || crashes != rejoins {
		t.Fatalf("fixture drift: want several crashes, all rejoined within the run; schedule has %d crashes / %d rejoins", crashes, rejoins)
	}
	release := releaseCheck(t)
	cl, _, _ := churnDeployment(t, gar.Average{}, nil, churn, seed)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	seen := map[*tcpPeer]bool{}
	for s := 0; s < steps; s++ {
		if _, err := cl.Step(); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if len(cl.peers) > workers {
			t.Fatalf("step %d: broadcast set holds %d connections for %d workers", s, len(cl.peers), workers)
		}
		holder := map[int]bool{}
		for _, p := range cl.peers {
			if holder[p.worker] {
				t.Fatalf("step %d: two live connections for worker %d", s, p.worker)
			}
			holder[p.worker] = true
			seen[p] = true
		}
	}
	for _, p := range cl.peers {
		delete(seen, p)
	}
	if len(seen) != crashes {
		t.Fatalf("%d connections retired over %d crashes", len(seen), crashes)
	}
	for p := range seen {
		if err := p.conn.SendModelCoords(0, make([]byte, 8)); err == nil {
			t.Fatalf("worker %d's pre-crash connection is still open server-side", p.worker)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	release(fmt.Sprintf("over %d rounds and %d crashes", steps, crashes))
}

// releaseCheck records the process's goroutines and, on linux, its open
// descriptors (openFDs) before a socket cluster starts, and returns the
// check to run after its Close: neither may stay above the record
// (goroutines get 5 s to exit).
func releaseCheck(t *testing.T) func(after string) {
	t.Helper()
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	return func(after string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Fatalf("%d goroutines after Close %s, %d before Start", n, after, goroutines)
		}
		if n := openFDs(); n > fds {
			t.Fatalf("%d descriptors open after Close %s, %d before Start", n, after, fds)
		}
	}
}

// TestTCPClusterChurnBelowBound forces live membership under multi-krum's
// 2f+3 safety bound: those rounds must be skipped explicitly (BelowBound +
// Skipped, GAR never consulted) rather than aggregated unsafely or
// deadlocked, and the skip count must match the schedule replay.
func TestTCPClusterChurnBelowBound(t *testing.T) {
	churn := ps.ChurnConfig{Rate: 0.08, DownSteps: 2, MaxRejoins: 2}
	const seed, steps = 13, 30
	rule := gar.NewMultiKrum(1)
	_, _, wantBelow := churnExpectation(churn, seed, steps, 7, rule.MinWorkers())
	if wantBelow == 0 {
		t.Fatal("dead fixture: schedule never falls below the safety bound")
	}

	cl, _, _ := churnDeployment(t, rule, nil, churn, seed)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	below := 0
	for i := 0; i < steps; i++ {
		res, err := cl.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if res.BelowBound {
			if !res.Skipped {
				t.Fatalf("step %d: below-bound round not marked skipped", i)
			}
			below++
		}
	}
	if below != wantBelow {
		t.Fatalf("belowBound rounds %d, want %d from schedule replay", below, wantBelow)
	}
	if !cl.Params().IsFinite() {
		t.Fatal("non-finite parameters after below-bound run")
	}
}

// TestTCPClusterChurnDeterministicRounds pins reproducibility under churn:
// same seed, same schedule, bit-identical parameters; a different seed takes
// a different trajectory.
func TestTCPClusterChurnDeterministicRounds(t *testing.T) {
	churn := ps.ChurnConfig{Rate: 0.05, DownSteps: 2, MaxRejoins: 3}
	const steps = 40
	run := func(seed int64) tensor.Vector {
		cl, _, _ := churnDeployment(t, gar.NewMultiKrum(1), nil, churn, seed)
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for i := 0; i < steps; i++ {
			if _, err := cl.Step(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
		}
		return cl.Params()
	}
	a, b, c := run(13), run(13), run(14)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("same seed, same churn schedule: parameters diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical parameters: churn seed not threading")
	}
}

// TestTCPClusterChurnGuards pins the loud construction-time incompatibility
// errors: churn × async, churn × unresponsive workers, churn × informed
// attacks, and malformed churn parameters.
func TestTCPClusterChurnGuards(t *testing.T) {
	base := func() TCPClusterConfig {
		return TCPClusterConfig{
			Addr:         "127.0.0.1:0",
			ModelFactory: func() *nn.Network { return nn.NewMLP(4, nil, 2, rand.New(rand.NewSource(1))) },
			Workers:      7,
			GAR:          gar.NewMultiKrum(1),
			Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
			Batch:        4,
			Train:        data.SyntheticFeatures(40, 4, 2, 3),
			Churn:        ps.ChurnConfig{Rate: 0.1, DownSteps: 2, MaxRejoins: 1},
			Seed:         7,
		}
	}
	t.Run("async", func(t *testing.T) {
		cfg := base()
		cfg.Async = ps.AsyncConfig{Quorum: 5, Staleness: 1, SlowRate: 0.2}
		_, err := NewTCPCluster(cfg)
		if !errors.Is(err, ps.ErrChurnAsync) {
			t.Fatalf("want ps.ErrChurnAsync, got %v", err)
		}
	})
	t.Run("unresponsive", func(t *testing.T) {
		cfg := base()
		cfg.Unresponsive = map[int]bool{3: true}
		_, err := NewTCPCluster(cfg)
		if err == nil || !strings.Contains(err.Error(), "unresponsive") {
			t.Fatalf("want unresponsive × churn rejection, got %v", err)
		}
	})
	t.Run("informed attack", func(t *testing.T) {
		cfg := base()
		cfg.Byzantine = map[int]string{6: "omniscient"}
		_, err := NewTCPCluster(cfg)
		if err == nil || !strings.Contains(err.Error(), "churn") {
			t.Fatalf("want informed × churn rejection, got %v", err)
		}
	})
	t.Run("blind attack allowed", func(t *testing.T) {
		cfg := base()
		cfg.Byzantine = map[int]string{6: "reversed"}
		cl, err := NewTCPCluster(cfg)
		if err != nil {
			t.Fatalf("blind attack must be compatible with churn: %v", err)
		}
		cl.Close()
	})
	t.Run("bad rate", func(t *testing.T) {
		cfg := base()
		cfg.Churn.Rate = 1.0
		if _, err := NewTCPCluster(cfg); err == nil {
			t.Fatal("want churn rate validation error")
		}
	})
	t.Run("bad downSteps", func(t *testing.T) {
		cfg := base()
		cfg.Churn.DownSteps = 0
		if _, err := NewTCPCluster(cfg); err == nil {
			t.Fatal("want churn downSteps validation error")
		}
	})
}

// TestTCPClusterAbruptDisconnectSettlesViaRecoup is the regression test for
// a worker vanishing between receiving a broadcast and submitting its
// gradient (no churn schedule — a genuine abrupt disconnect): the reader's
// error must mark the worker dead and let the round settle through the
// recoup policy immediately, not wedge until RoundTimeout, and later rounds
// must keep training on the survivors.
func TestTCPClusterAbruptDisconnectSettlesViaRecoup(t *testing.T) {
	const crashStep = 3
	ds := data.SyntheticFeatures(120, 6, 3, 9)
	ds.MinMaxScale()
	train, _ := ds.Split(0.8)
	cl, err := NewTCPCluster(TCPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: func() *nn.Network { return nn.NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(10))) },
		Workers:      5,
		GAR:          gar.Median{},
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:        8,
		Train:        train,
		RoundTimeout: 30 * time.Second,
		Seed:         21,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.testAbruptClose = map[int]int{2: crashStep}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 8; i++ {
		start := time.Now()
		res, err := cl.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if elapsed := time.Since(start); i >= crashStep && elapsed > 5*time.Second {
			t.Fatalf("step %d took %v: abrupt disconnect wedged the round toward RoundTimeout", i, elapsed)
		}
		want := 5
		if i >= crashStep {
			want = 4 // DropGradient recoup: the dead slot is dropped
		}
		if res.Received != want {
			t.Fatalf("step %d received %d gradients, want %d", i, res.Received, want)
		}
	}
	if !cl.Params().IsFinite() {
		t.Fatal("non-finite parameters after abrupt-disconnect run")
	}
}
