package ps

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// firstRule is a stub GAR that returns its first input: allocation-free, so
// the engine's own allocations are all a test sees.
type firstRule struct{}

func (firstRule) Name() string { return "first" }
func (firstRule) AggregateInto(_ *gar.Workspace, grads []tensor.Vector) (tensor.Vector, error) {
	if len(grads) == 0 {
		return nil, gar.ErrNoGradients
	}
	return grads[0], nil
}

// roundTestMTU fits three float64 coordinates per packet, so the 10-parameter
// test model splits into four packets.
var roundTestMTU = transport.Codec{}.MinMTU() + 16

// roundTestEngine builds an engine over a 10-parameter model for a legal
// round description (rule nil = firstRule).
func roundTestEngine(rc RoundConfig, rule gar.GAR) *Engine {
	if rule == nil {
		rule = firstRule{}
	}
	e, err := NewEngine(EngineConfig{
		RoundConfig: rc, Model: nn.NewMLP(4, nil, 2, rand.New(rand.NewSource(3))),
		GAR: rule, Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
	})
	if err != nil {
		panic(err)
	}
	return e
}

func randomGrads(rng *rand.Rand, n, dim int) []tensor.Vector {
	grads := make([]tensor.Vector, n)
	for i := range grads {
		grads[i] = tensor.NewVector(dim)
		for j := range grads[i] {
			grads[i][j] = rng.NormFloat64()
		}
	}
	return grads
}

// TestRoundOfferOrderInvariance proves the id-slotting argument once, for
// every backend: the order in which a round's submissions arrive — a race on
// any real transport — cannot reach the result. Any permutation of the same
// offers yields a bit-identical StepResult and parameter vector, including
// under Average, whose floating-point sum is order-sensitive.
func TestRoundOfferOrderInvariance(t *testing.T) {
	const n, rounds = 7, 4
	for _, rule := range []gar.GAR{gar.Average{}, gar.Median{}} {
		run := func(permSeed int64) ([]*StepResult, tensor.Vector) {
			e := roundTestEngine(RoundConfig{Workers: n, Seed: 5,
				Async: AsyncConfig{Quorum: 4, Staleness: 2, SlowRate: 0.3}}, rule)
			gradRng := rand.New(rand.NewSource(11))
			permRng := rand.New(rand.NewSource(permSeed))
			var results []*StepResult
			for s := 0; s < rounds; s++ {
				grads := randomGrads(gradRng, n, e.params.Dim())
				round := e.Begin()
				for _, id := range permRng.Perm(n) {
					if round.Tag(id) >= 0 {
						round.Offer(id, round.Tag(id), grads[id], float64(id))
					}
				}
				if round.Outstanding() != 0 {
					t.Fatalf("step %d: %d slots outstanding after every scheduled offer", s, round.Outstanding())
				}
				res, err := round.Finish()
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, res)
			}
			return results, e.Params()
		}
		wantRes, wantParams := run(0)
		for perm := int64(1); perm <= 20; perm++ {
			res, params := run(perm)
			if !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("%s: permutation %d changed the step results", rule.Name(), perm)
			}
			for i := range params {
				if math.Float64bits(params[i]) != math.Float64bits(wantParams[i]) {
					t.Fatalf("%s: permutation %d changed parameter %d: %v vs %v", rule.Name(), perm, i, params[i], wantParams[i])
				}
			}
		}
	}
}

// TestRoundSteadyStateAllocs pins the engine's scratch ownership: a
// steady-state Begin → Offer×n → Finish allocates only the returned
// StepResult, with and without scheduled loss on both links and under a
// churn schedule (the plan's timelines and drop masks, recoup fills and
// whole-slot stand-ins all live in engine-owned scratch).
// The evaluation replica's sync allocates inside nn (one slice per
// parameterised layer); it is measured on its own and subtracted.
func TestRoundSteadyStateAllocs(t *testing.T) {
	const n = 9
	for _, rc := range []RoundConfig{
		{},
		{Link: Link{MTU: roundTestMTU, GradLoss: 0.4, ModelLoss: 0.2, StaleModels: true}},
		{Churn: ChurnConfig{Rate: 0.2, DownSteps: 2, MaxRejoins: 1 << 30}},
	} {
		rc.Workers, rc.Seed, rc.Recoup = n, 7, transport.FillRandom
		link := rc.Link
		e := roundTestEngine(rc, nil)
		grads := randomGrads(rand.New(rand.NewSource(1)), n, e.params.Dim())
		recouped := 0
		step := func() {
			round := e.Begin()
			for id := 0; id < n; id++ {
				if v := round.Offer(id, round.Tag(id), grads[id], 1); v == RejectDuplicate {
					recouped++ // every packet scheduled away: settled at Begin
				}
			}
			if _, err := round.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			step() // warm-up: every slot has been wholly recouped at least once
		}
		if link.GradLoss > 0 && recouped == 0 {
			t.Fatal("dead fixture: the lossy link never scheduled a whole slot away")
		}
		sync := testing.AllocsPerRun(100, func() { e.net.SetParamsVector(e.params) })
		if allocs := testing.AllocsPerRun(100, step) - sync; allocs > 1 {
			t.Errorf("%+v: %v engine allocs per round, want <= 1 (the StepResult)", rc, allocs)
		}
	}
}

// TestLossCountsWithoutGradientInProcessOnly keeps the name of the quirk it
// used to pin — in-process, a worker's loss counted toward StepResult.Loss
// even when its link ate the gradient — and pins that the quirk is gone: on
// every backend a loss is packet metadata, counted only for a slot whose own
// submission arrived.
func TestLossCountsWithoutGradientInProcessOnly(t *testing.T) {
	train, _, factory := testFixture(9)
	step := func(link Link, silent bool) *StepResult {
		workers := honestWorkers(train, 3)
		workers[0].Silent = silent
		c, err := New(Config{ModelFactory: factory, Workers: workers, GAR: gar.Average{},
			Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}}, Batch: 8, Link: link})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Worker 0 alone on a link that eats nine packets in ten, under
	// DropGradient: its gradient is dropped whole, though packets arrived.
	whole, dropped, absent := step(Link{}, false), step(Link{MTU: roundTestMTU, GradLoss: 0.9, Slots: 1}, false), step(Link{}, true)
	if whole.Received != 3 || dropped.Received != 2 || absent.Received != 2 {
		t.Fatalf("received %d, %d and %d gradients, want 3, 2 and 2", whole.Received, dropped.Received, absent.Received)
	}
	if dropped.Loss != absent.Loss || dropped.Loss == whole.Loss {
		t.Fatalf("loss mean %v with worker 0's gradient dropped, want the other two workers' mean %v (all three: %v)",
			dropped.Loss, absent.Loss, whole.Loss)
	}

	// The socket contract, at the engine: worker 2 is never heard from.
	e := roundTestEngine(RoundConfig{Workers: 3, Seed: 1}, nil)
	round := e.Begin()
	g := tensor.NewVector(e.params.Dim())
	round.Offer(0, 0, g, 1)
	round.Offer(1, 0, g, 2)
	round.Expire()
	res, err := round.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss != 1.5 || res.Received != 2 {
		t.Fatalf("loss %v over %d gradients, want 1.5 over 2 (the silent slot has no loss)", res.Loss, res.Received)
	}
}

// roundSnapshot captures everything an offer or a handshake may change.
func roundSnapshot(r *Round) string {
	return fmt.Sprint(r.e.slots, r.e.asm.Pending(), r.e.rejoins, r.e.attempts)
}

// FuzzRound drives arbitrary arrival sequences — whole gradients, single
// packets, rejoin handshakes, disconnects, deadlines — against plans drawn
// from every schedule the engine knows, and checks the settlement
// invariants: the incremental plan equals the pure replay of the schedules,
// rejections never mutate the round, Outstanding only shrinks (but for a
// readmitted worker's slot), no worker is admitted back twice in a round or
// before its downtime elapses, every slot
// ends settled in a way the schedules allow, and the counters equal an
// independent evaluation of the seeded schedules and the verdicts issued.
func FuzzRound(f *testing.F) {
	f.Add([]byte{6, 0, 0, 9, 3, 0, 1, 0, 1, 1, 0, 2, 2, 0, 0, 9, 0})
	f.Add([]byte{5, 1, 2, 7, 3, 0, 0, 1, 1, 0, 9, 2, 1, 0, 3, 3, 2, 4, 0, 1})
	f.Add([]byte{7, 2, 1, 3, 4, 1, 0, 0, 1, 2, 0, 2, 1, 3, 3, 0, 5, 0, 6, 2})
	f.Add([]byte{4, 3, 2, 5, 3, 1, 1, 0, 1, 0, 2, 1, 1, 1, 3, 0, 2, 2, 1, 3})
	f.Add([]byte{7, 2, 0, 9, 3, 4, 1, 21, 4, 3, 39, 0xff, 4, 2, 21, 4, 5, 3, 0xff, 4, 1, 39, 4, 6, 21})
	f.Add([]byte("72022\xff\xff1\x04!")) // a suspected worker readmitted mid-round is outstanding again
	// Link.Slots set (bit 3 of the second byte): lockstep, slow schedule and churn over a link some slots are off.
	f.Add([]byte{6, 12, 1, 9, 3, 1, 1, 0, 1, 2, 1, 1, 6, 2, 0, 4, 0, 0xff, 1, 5, 2, 0, 6, 0})
	f.Add([]byte{5, 13, 2, 7, 3, 1, 1, 1, 1, 5, 0, 0, 2, 1, 3, 3, 2, 0xff, 1, 1, 3})
	f.Add([]byte{7, 14, 0, 3, 4, 1, 2, 0, 4, 3, 19, 0xff, 1, 7, 1, 2, 1, 0, 0xff, 0, 3, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 5 {
			return
		}
		n := int(in[0]%8) + 1
		cfg := RoundConfig{Workers: n, Seed: int64(in[3]), Recoup: transport.RecoupPolicy(in[2] % 3)}
		link := Link{MTU: roundTestMTU}
		switch in[1] % 4 {
		case 1:
			cfg.Async = AsyncConfig{Quorum: n/2 + 1, Staleness: 2, SlowRate: 0.4}
		case 2:
			cfg.Churn = ChurnConfig{Rate: 0.3, DownSteps: 1 + int(in[2]%2), MaxRejoins: 2}
		case 3:
			link.ModelLoss, link.StaleModels = 0.3, in[2]%2 == 0
		}
		if in[1]&4 != 0 {
			link.GradLoss = 0.3
		}
		if in[1]&8 != 0 {
			link.Slots = 1 + int(in[2])%n
		}
		cfg.Link = link
		rounds := int(in[4]%4) + 1
		in = in[5:]

		e := roundTestEngine(cfg, nil)
		dim := e.params.Dim()
		pkts := link.Codec.PacketsPerTransfer(dim, link.MTU)
		grad := randomGrads(rand.New(rand.NewSource(2)), 1, dim)[0]
		rng := rand.New(rand.NewSource(cfg.Seed))
		lastComplete, lastCrash := make([]int, n), make([]int, n)
		for id := range lastComplete {
			lastComplete[id], lastCrash[id] = -1, -1
		}
		for step := 0; step < rounds; step++ {
			// Independent evaluation of the schedules for this step.
			wantTag, phases := make([]int, n), make([]ChurnPhase, n)
			var wantDropped, wantCrashes, wantRejoins, wantAttempts int
			for id := range wantTag {
				wantTag[id] = step
				phases[id] = cfg.Churn.Phase(cfg.Seed, step, id)
				switch phases[id] {
				case ChurnCrash:
					wantCrashes++
					wantTag[id], lastCrash[id] = -1, step
				case ChurnDown:
					wantTag[id] = -1
				case ChurnRejoin:
					if lastCrash[id] < 0 || step != lastCrash[id]+cfg.Churn.DownSteps {
						t.Fatalf("step %d: slot %d rejoins before downSteps %d elapsed (crash at %d)", step, id, cfg.Churn.DownSteps, lastCrash[id])
					}
				}
				if cfg.Async.Enabled() {
					if wantTag[id] = cfg.Async.ExpectedTag(cfg.Seed, step, id); wantTag[id] < 0 {
						wantDropped++
					}
				}
				if mask := DownlinkDrops(rng, make([]bool, pkts), cfg.Seed, step, id, link.ModelLoss); mask != nil {
					switch surv := transport.CountSurvivors(mask, pkts); {
					case surv == pkts:
						lastComplete[id] = step
					case surv > 0 && link.StaleModels && lastComplete[id] >= 0:
						wantTag[id] = lastComplete[id]
					default:
						wantTag[id] = -1
					}
				}
			}

			round := e.Begin()
			for id := range wantTag {
				if round.Tag(id) != wantTag[id] {
					t.Fatalf("step %d: slot %d plans tag %d, schedules say %d", step, id, round.Tag(id), wantTag[id])
				}
				if p := e.slots[id].plan; !link.carries(id) && (p.Uplink != nil || p.Lost != 0) {
					t.Fatalf("step %d: slot %d is off the link (%d slots on it) and plans uplink %v, %d lost", step, id, link.Slots, p.Uplink, p.Lost)
				} else if p.Phase != phases[id] || p.Gone() != cfg.Churn.Permanent(cfg.Seed, step, id) {
					t.Fatalf("step %d: slot %d plans %v (gone %v), replay says %v (gone %v)",
						step, id, p.Phase, p.Gone(), phases[id], cfg.Churn.Permanent(cfg.Seed, step, id))
				}
			}
			admitted := make([]bool, n)
			outstanding := round.Outstanding()
			for ; len(in) >= 3 && in[0] != 0xff; in = in[3:] {
				id := int(in[1]) - 1 // exercise out-of-range ids on both sides
				tag := step - 3 + int(in[2]%6)
				before := roundSnapshot(round)
				var v Admission
				switch in[0] % 5 {
				case 0:
					v = round.Offer(id, tag, grad, 1)
				case 1:
					pkt := link.Codec.Split(&transport.GradientMsg{Worker: id, Step: tag, Loss: 1, Grad: grad}, link.MTU)[int(in[2])%pkts]
					v = round.OfferPacket(&pkt)
				case 2:
					if id >= 0 && id < n {
						round.Disconnected(id)
					}
					v = AdmitFresh // not an offer: exempt from the rejection check
				case 3:
					round.Expire()
					v = AdmitFresh
				case 4:
					// A rejoin hello: any worker, any claimed round, 0-2 dial
					// attempts, with or without a churn schedule. Admitted iff
					// scheduled, first and sane.
					attempts := int(in[2]>>4) % 3
					legit := id >= 0 && id < n && tag == step && attempts >= 1 && phases[id] == ChurnRejoin && !admitted[id]
					if v = round.Rejoin(id, tag, attempts); legit != v.Admitted() {
						t.Fatalf("step %d: hello (worker %d step %d attempts %d) verdict %v, legit=%v", step, id, tag, attempts, v, legit)
					}
					if v.Admitted() {
						admitted[id] = true
						wantRejoins++
						wantAttempts += attempts
						outstanding = round.Outstanding() // a suspected worker that is back is waited for again
					}
				}
				if !v.Admitted() && roundSnapshot(round) != before {
					t.Fatalf("step %d: rejection %v of (%d, %d) mutated the round", step, v, id, tag)
				}
				inRange := id >= 0 && id < n
				switch {
				case in[0]%5 >= 2:
				case v.Admitted():
					if !inRange || tag != wantTag[id] || (v == AdmitFresh) != (tag == step) {
						t.Fatalf("step %d: %v for (%d, %d), scheduled tags %v", step, v, id, tag, wantTag)
					}
				case v == RejectUnknownWorker:
					if inRange {
						t.Fatalf("step %d: in-range worker %d rejected as unknown", step, id)
					}
				case v == RejectDuplicate:
					if !inRange || tag != wantTag[id] {
						t.Fatalf("step %d: duplicate verdict for (%d, %d), scheduled tags %v", step, id, tag, wantTag)
					}
				case v == RejectTooStale:
					if tag >= step-cfg.Async.Staleness {
						t.Fatalf("step %d: in-window tag %d rejected as too stale", step, tag)
					}
				case v == RejectWrongTag:
					if inRange && tag == wantTag[id] && tag >= 0 {
						t.Fatalf("step %d: scheduled tag %d of worker %d rejected as wrong", step, tag, id)
					}
				default:
					t.Fatalf("step %d: unexpected verdict %v", step, v)
				}
				if now := round.Outstanding(); now > outstanding {
					t.Fatalf("step %d: Outstanding grew from %d to %d", step, outstanding, now)
				} else {
					outstanding = now
				}
			}
			if len(in) > 0 {
				in = in[1:] // the round separator
			}
			// The scheduled rejoins no scripted handshake brought back come
			// back now, once each.
			round.AdmitRejoins()
			for id, p := range phases {
				if p == ChurnRejoin && !admitted[id] {
					wantRejoins++
					wantAttempts++
				}
			}
			if round.PendingRejoins() != 0 {
				t.Fatalf("step %d: %d rejoins pending after admitting all scheduled", step, round.PendingRejoins())
			}
			if round.Outstanding() > 0 {
				round.Expire()
			}
			res, err := round.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if res.DroppedStale != wantDropped || res.Crashes != wantCrashes ||
				res.Rejoins != wantRejoins || res.ReconnectAttempts != wantAttempts {
				t.Fatalf("step %d: counters %+v, schedules and verdicts say dropped=%d crashes=%d rejoins=%d attempts=%d",
					step, res, wantDropped, wantCrashes, wantRejoins, wantAttempts)
			}
			filled, stale := 0, 0
			for id := range e.slots {
				s := e.slots[id].state
				scheduledOut := wantTag[id] < 0 && link.ModelLoss == 0
				switch {
				case s == slotOpen:
					t.Fatalf("step %d: slot %d still open after Finish", step, id)
				case scheduledOut && s != slotEmpty:
					t.Fatalf("step %d: slot %d is scheduled out but ended in state %d", step, id, s)
				case !scheduledOut && s == slotEmpty && cfg.Recoup != transport.DropGradient:
					t.Fatalf("step %d: slot %d ended empty under recoup policy %v", step, id, cfg.Recoup)
				case s == slotRecouped && cfg.Recoup == transport.DropGradient:
					t.Fatalf("step %d: slot %d recouped under DropGradient", step, id)
				case s == slotGot && wantTag[id] != step:
					stale++
				}
				if s == slotGot || s == slotRecouped {
					filled++
				}
			}
			if res.Received != filled || res.AdmittedStale+res.Stale != stale {
				t.Fatalf("step %d: result %+v, slots say received=%d stale=%d", step, res, filled, stale)
			}
		}
	})
}

// TestRoundAdmission scripts every verdict of the Admission enum against one
// plan: an asynchronous round (τ = 2) with at least one scheduled-stale slot.
func TestRoundAdmission(t *testing.T) {
	const n = 7
	e := roundTestEngine(RoundConfig{Workers: n, Seed: 5, Async: AsyncConfig{Quorum: 3, Staleness: 2, SlowRate: 0.5}}, nil)
	g := tensor.NewVector(e.params.Dim())
	var round *Round
	fresh, slow, out := -1, -1, -1
	for fresh < 0 || slow < 0 || out < 0 {
		if round != nil {
			if _, err := round.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		if e.step > 50 {
			t.Fatal("dead fixture: no round with a fresh, a stale and a too-stale slot")
		}
		round = e.Begin()
		fresh, slow, out = -1, -1, -1
		for id := 0; id < n; id++ {
			switch tag := round.Tag(id); {
			case tag < 0:
				out = id
			case tag < e.step:
				slow = id
			default:
				fresh = id
			}
		}
	}
	step := e.step
	pkt := transport.Packet{Worker: fresh, Step: step, Dim: e.params.Dim() + 1}
	if v := round.OfferPacket(&pkt); v != RejectMalformed {
		t.Fatalf("wrong-dimension packet: verdict %v, want %v", v, RejectMalformed)
	}
	// A whole gradient one coordinate short is refused the same way, and
	// leaves the slot open for the worker's real submission below.
	if v := round.Offer(fresh, step, g[:len(g)-1], 0); v != RejectMalformed {
		t.Fatalf("wrong-dimension gradient: verdict %v, want %v", v, RejectMalformed)
	}
	script := []struct {
		id, tag int
		want    Admission
	}{
		{fresh, step, AdmitFresh},
		{fresh, step, RejectDuplicate},
		{slow, step - 3, RejectTooStale},
		{slow, step, RejectWrongTag}, // in-window but not the scheduled tag
		{slow, step + 1, RejectWrongTag},
		{out, step, RejectWrongTag}, // a scheduled-out slot never admits
		{-1, step, RejectUnknownWorker},
		{n, step, RejectUnknownWorker},
		{slow, round.Tag(slow), AdmitStale},
	}
	for i, s := range script {
		if got := round.Offer(s.id, s.tag, g, 0); got != s.want {
			t.Fatalf("arrival %d (worker %d, tag %d at step %d): verdict %v, want %v", i, s.id, s.tag, step, got, s.want)
		}
	}
	res, err := round.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Received != 2 || res.AdmittedStale != 1 || res.DroppedStale == 0 {
		t.Fatalf("result %+v, want 2 received, 1 admitted stale, >= 1 dropped", res)
	}
	for a := AdmitFresh; a <= RejectMalformed+1; a++ {
		if a.String() == "" {
			t.Fatalf("Admission(%d) renders empty", int(a))
		}
	}
}
