package ps

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// fold is one round's Totals: the counters a test reads off StepResult.Slots.
func fold(res *StepResult) Totals {
	var t Totals
	t.Add(res)
	return t
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
				// Slots is the engine's and the next Begin rewrites it: keep a copy.
				res.Slots = slices.Clone(res.Slots)
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
// whole-slot stand-ins all live in engine-owned scratch), and so does a
// round whose submissions arrive as the packets the uplink masks leave:
// each slot reassembles in its row, with its one bitmap.
// The evaluation replica's sync allocates inside nn (one slice per
// parameterised layer); it is measured on its own and subtracted.
func TestRoundSteadyStateAllocs(t *testing.T) {
	const n = 9
	lossy := Link{MTU: roundTestMTU, GradLoss: 0.4, ModelLoss: 0.2, StaleModels: true}
	for _, tc := range []struct {
		rc      RoundConfig
		packets bool
	}{
		{RoundConfig{}, false},
		{RoundConfig{Link: lossy}, false},
		{RoundConfig{Link: lossy}, true},
		{RoundConfig{Churn: ChurnConfig{Rate: 0.2, DownSteps: 2, MaxRejoins: 1 << 30}}, false},
	} {
		rc := tc.rc
		rc.Workers, rc.Seed, rc.Recoup = n, 7, transport.FillRandom
		link := rc.Link
		e := roundTestEngine(rc, nil)
		grads := randomGrads(rand.New(rand.NewSource(1)), n, e.params.Dim())
		var pkts []transport.Packet
		recouped := 0
		step := func() {
			round := e.Begin()
			for id := 0; id < n; id++ {
				if tc.packets {
					pkts = link.Codec.SplitInto(pkts[:0], &transport.GradientMsg{Worker: id, Step: round.Tag(id), Loss: 1, Grad: grads[id]}, link.MTU)
					for i := range pkts {
						if up := e.slots[id].plan.Uplink; i >= len(up) || !up[i] {
							round.OfferPacket(&pkts[i])
						}
					}
					continue
				}
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
		if link.GradLoss > 0 && !tc.packets && recouped == 0 {
			t.Fatal("dead fixture: the lossy link never scheduled a whole slot away")
		}
		sync := testing.AllocsPerRun(100, func() { e.net.SetParamsVector(e.params) })
		if allocs := testing.AllocsPerRun(100, step) - sync; allocs > 1 {
			t.Errorf("%+v (packets %v): %v engine allocs per round, want <= 1 (the StepResult)", rc, tc.packets, allocs)
		}
	}
}

// TestSlotRowIsTheOneBuffer: a slot's gradient lands in its row whichever
// way it settles — reassembled from packets, fill-completed from some of
// them, or wholly stood in for — and the row is the same memory every round.
func TestSlotRowIsTheOneBuffer(t *testing.T) {
	e := roundTestEngine(RoundConfig{Workers: 3, Seed: 2, Recoup: transport.FillRandom, Link: Link{MTU: roundTestMTU}}, nil)
	grad := randomGrads(rand.New(rand.NewSource(4)), 1, e.params.Dim())[0]
	var row *float64
	for step, arrive := range []int{4, 2, 0} { // packets of worker 0's transfer that arrive
		round := e.Begin()
		pkts := transport.Codec{}.Split(&transport.GradientMsg{Worker: 0, Step: step, Loss: 1, Grad: grad}, roundTestMTU)
		for i := range pkts[:arrive] {
			round.OfferPacket(&pkts[i])
		}
		round.Expire()
		if arrive < len(pkts) {
			round.recoup(0)
		}
		s := &e.slots[0]
		if out := e.outcomes[0]; out == SlotOpen || &s.grad[0] != &s.row[0] || row != nil && &s.row[0] != row {
			t.Fatalf("step %d (%d packets): slot settled as %v outside its row", step, arrive, out)
		}
		row = &s.row[0]
		for i := range pkts[:arrive] {
			for j, x := range pkts[i].Coords {
				if s.grad[pkts[i].Offset+j] != x {
					t.Fatalf("step %d: coordinate %d is %v, the packet carried %v", step, pkts[i].Offset+j, s.grad[pkts[i].Offset+j], x)
				}
			}
		}
		if _, err := round.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOfferPacketWrongDimCannotEvict: the engine pins the model's dimension
// ahead of its partials, so a packet claiming any other Dim under an honest
// slot's key is RejectMalformed and changes nothing — it can neither
// allocate nor evict the honest partial — and the honest gradient completes.
func TestOfferPacketWrongDimCannotEvict(t *testing.T) {
	e := roundTestEngine(RoundConfig{Workers: 3, Seed: 1, Link: Link{MTU: roundTestMTU}}, nil)
	grad := randomGrads(rand.New(rand.NewSource(5)), 1, e.params.Dim())[0]
	round := e.Begin()
	pkts := transport.Codec{}.Split(&transport.GradientMsg{Worker: 1, Step: 0, Loss: 0.5, Grad: grad}, roundTestMTU)
	round.OfferPacket(&pkts[0])
	before := roundSnapshot(round)
	spoof := &transport.Packet{Worker: 1, Step: 0, Loss: 9, Dim: e.params.Dim() / 2, Coords: tensor.Vector{1, 2}}
	if v := round.OfferPacket(spoof); v != RejectMalformed {
		t.Fatalf("wrong-dimension spoof: verdict %v, want %v", v, RejectMalformed)
	}
	if after := roundSnapshot(round); after != before || e.Evictions() != 0 {
		t.Fatalf("the spoof moved the round (evictions %d):\n%s\n%s", e.Evictions(), before, after)
	}
	for i := range pkts[1:] {
		round.OfferPacket(&pkts[1+i])
	}
	if s := &e.slots[1]; e.outcomes[1] != SlotFresh || !slices.Equal(s.grad, grad) || s.loss != 0.5 {
		t.Fatalf("the honest gradient settled as %v with loss %v", e.outcomes[1], s.loss)
	}
}

// TestBeginDiscardsEarlierPartials: a partial left by a round that failed
// before Finish can never complete — its remaining packets belong to a
// round that is over — so Begin empties it, and the slot reassembles the
// next round's transfer from its first packet, not on top of stale
// coordinates.
func TestBeginDiscardsEarlierPartials(t *testing.T) {
	e := roundTestEngine(RoundConfig{Workers: 2, Seed: 1, Recoup: transport.FillNaN, Link: Link{MTU: roundTestMTU}}, nil)
	grads := randomGrads(rand.New(rand.NewSource(6)), 2, e.params.Dim())
	split := func(g tensor.Vector) []transport.Packet {
		return transport.Codec{}.Split(&transport.GradientMsg{Worker: 0, Step: 0, Loss: 1, Grad: g}, roundTestMTU)
	}
	round := e.Begin()
	old := split(grads[0])
	for i := range old[:len(old)-1] {
		round.OfferPacket(&old[i])
	}
	if e.slots[0].part.Empty() {
		t.Fatal("dead fixture: no partial pending")
	}
	round = e.Begin() // the round failed: it is begun again, never finished
	if !e.slots[0].part.Empty() {
		t.Fatal("Begin kept a partial from a round that is over")
	}
	fresh := split(grads[1])
	round.OfferPacket(&fresh[len(fresh)-1])
	round.recoup(0)
	last := fresh[len(fresh)-1]
	for i, x := range e.slots[0].grad {
		if i >= last.Offset {
			if x != last.Coords[i-last.Offset] {
				t.Fatalf("coordinate %d is %v, the packet carried %v", i, x, last.Coords[i-last.Offset])
			}
		} else if !math.IsNaN(x) {
			t.Fatalf("coordinate %d is %v from the discarded partial, want the NaN recoup", i, x)
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

// roundSnapshot captures everything an offer or a handshake may change: the
// slots print their rows and partials too — coordinates, arrival bitmap,
// missing count, pinned loss.
func roundSnapshot(r *Round) string {
	return fmt.Sprint(r.e.slots, r.e.outcomes, r.e.evictions, r.e.attempts)
}

// FuzzRound drives arbitrary arrival sequences — whole gradients, single
// packets, rejoin handshakes, disconnects, deadlines — against plans drawn
// from every schedule the engine knows, and checks the settlement
// invariants: the incremental plan equals the pure replay of the schedules,
// rejections never mutate the round, Outstanding only shrinks (but for a
// readmitted worker's slot), no worker is admitted back twice in a round or
// before its downtime elapses, every slot's outcome is the one an
// independent evaluation of the seeded schedules and the verdicts issued
// allows, and the counters are the same evaluation's.
func FuzzRound(f *testing.F) {
	f.Add([]byte{6, 0, 0, 9, 3, 0, 1, 0, 1, 1, 0, 2, 2, 0, 0, 9, 0})
	f.Add([]byte{5, 1, 2, 7, 3, 0, 0, 1, 1, 0, 9, 2, 1, 0, 3, 3, 2, 4, 0, 1})
	f.Add([]byte{7, 2, 1, 3, 4, 1, 0, 0, 1, 2, 0, 2, 1, 3, 3, 0, 5, 0, 6, 2})
	f.Add([]byte{4, 3, 2, 5, 3, 1, 1, 0, 1, 0, 2, 1, 1, 1, 3, 0, 2, 2, 1, 3})
	f.Add([]byte{7, 2, 0, 9, 3, 4, 1, 21, 4, 3, 39, 0xff, 4, 2, 21, 4, 5, 3, 0xff, 4, 1, 39, 4, 6, 21})
	f.Add([]byte("72022\xff\xff1\x04!")) // a suspected worker readmitted mid-round is outstanding again
	// A stale gradient admitted in each regime: the slow schedule's (worker 3
	// lags to tag 0 at step 1 under seed 1) and a torn broadcast answered on
	// the last complete model (worker 0 at step 1 under seed 0).
	f.Add([]byte{6, 1, 1, 1, 1, 0xff, 0, 4, 2})
	f.Add([]byte{6, 3, 4, 0, 1, 0xff, 0, 1, 2})
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
		// The low bits of the fifth byte give the number of rounds, the high
		// nibble an offer budget: a round ends after that many operations
		// or at a 0xff byte, whichever comes first (0: only at 0xff), so a
		// mutated input reaches the later steps where stale tags live.
		rounds, budget := int(in[4]%4)+1, int(in[4]>>4)
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
					switch lost := transport.LostCoords(mask, dim, link.Codec.CoordsPerPacket(link.MTU)); {
					case lost == 0:
						lastComplete[id] = step
					case lost < dim && link.StaleModels && lastComplete[id] >= 0:
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
			// admitted: a rejoin hello; offered, whole: a gradient or any
			// packet of one, a whole gradient.
			admitted, offered, whole := make([]bool, n), make([]bool, n), make([]bool, n)
			outstanding := round.Outstanding()
			for ops := 0; len(in) >= 3 && in[0] != 0xff && (budget == 0 || ops < budget); ops, in = ops+1, in[3:] {
				id := int(in[1]%16) - 1 // -1 to 14: mostly in range, out of range on both sides
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
					offered[id], whole[id] = true, whole[id] || in[0]%5 == 0
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
			if len(in) > 0 && in[0] == 0xff {
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
			if tot := fold(res); tot.DroppedTooStale != wantDropped || tot.Crashes != wantCrashes ||
				res.Rejoins != wantRejoins || res.ReconnectAttempts != wantAttempts {
				t.Fatalf("step %d: counters %+v, schedules and verdicts say dropped=%d crashes=%d rejoins=%d attempts=%d",
					step, res, wantDropped, wantCrashes, wantRejoins, wantAttempts)
			}
			// Every slot's outcome, from the schedules and the verdicts: a
			// slot the schedules take out says why; otherwise a whole
			// gradient admitted settles it as the worker's own, stale by
			// regime when the tag is old; a partial does too, but when
			// DropGradient may drop it; a slot with nothing admitted, or
			// nothing that can arrive, is stood in for — recouped, or
			// dropped under DropGradient and only under it.
			received := 0
			for id, got := range res.Slots {
				own, stand := SlotFresh, SlotRecouped
				if wantTag[id] != step && cfg.Async.Enabled() {
					own = SlotAdmittedStale
				} else if wantTag[id] != step {
					own = SlotStale
				}
				if cfg.Recoup == transport.DropGradient {
					stand = SlotDropped
				}
				var want []Outcome
				switch {
				case phases[id] == ChurnCrash:
					want = []Outcome{SlotCrashed}
				case phases[id] == ChurnDown:
					want = []Outcome{SlotDown}
				case cfg.Async.Enabled() && wantTag[id] < 0:
					want = []Outcome{SlotTooStale}
				case wantTag[id] < 0 || !offered[id]:
					want = []Outcome{stand}
				case whole[id] || cfg.Recoup != transport.DropGradient:
					want = []Outcome{own}
				default:
					want = []Outcome{own, stand}
				}
				if !slices.Contains(want, got) {
					t.Fatalf("step %d: slot %d settled %v, want one of %v (tag %d, phase %v, offered %v, whole %v, recoup %v)",
						step, id, got, want, wantTag[id], phases[id], offered[id], whole[id], cfg.Recoup)
				}
				if got == SlotFresh || got == SlotStale || got == SlotAdmittedStale || got == SlotRecouped {
					received++
				}
			}
			if len(res.Slots) != n || res.Received != received {
				t.Fatalf("step %d: %d gradients received, %d of the %d slots settled with one", step, res.Received, received, len(res.Slots))
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
	if tot := fold(res); res.Received != 2 || tot.AdmittedStale != 1 || tot.DroppedTooStale == 0 {
		t.Fatalf("result %+v, want 2 received, 1 admitted stale, >= 1 dropped", res)
	}
	for a := AdmitFresh; a <= RejectMalformed+1; a++ {
		if a.String() == "" {
			t.Fatalf("Admission(%d) renders empty", int(a))
		}
	}
}
