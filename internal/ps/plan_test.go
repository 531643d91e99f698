package ps

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// legalRoundConfigs draws round descriptions covering every schedule alone
// and in each combination RoundConfig.Validate allows — the slow schedule,
// churn, and a lossy downlink under both torn-broadcast policies, each with
// and without a lossy uplink — with seeded parameters. It is the first piece
// of the generated legal-config space the reproducibility contract is meant
// to hold over.
func legalRoundConfigs(rng *rand.Rand, perShape int) []RoundConfig {
	var out []RoundConfig
	for shape := 0; shape < 10; shape++ {
		for i := 0; i < perShape; i++ {
			n := 2 + rng.Intn(7)
			rc := RoundConfig{Workers: n, Seed: rng.Int63n(1 << 20), Recoup: transport.RecoupPolicy(rng.Intn(3)),
				Link: Link{MTU: roundTestMTU, Codec: transport.Codec{Float32: rng.Intn(2) == 0}}}
			switch shape / 2 {
			case 1:
				rc.Async = AsyncConfig{Quorum: rng.Intn(n + 1), Staleness: 1 + rng.Intn(3), SlowRate: 0.1 + 0.6*rng.Float64()}
			case 2:
				rc.Churn = ChurnConfig{Rate: 0.02 + 0.3*rng.Float64(), DownSteps: 1 + rng.Intn(4), MaxRejoins: rng.Intn(4)}
			case 3, 4:
				rc.Link.ModelLoss, rc.Link.StaleModels = 0.05+0.4*rng.Float64(), shape/2 == 4
			}
			if shape%2 == 1 {
				rc.Link.GradLoss = 0.05 + 0.4*rng.Float64()
			}
			out = append(out, rc)
		}
	}
	return out
}

// TestWorkerPlanMatchesEnginePlan pins "both endpoints, one function": for
// every legal schedule combination, over 300 steps, the single-slot planner a
// socket worker runs equals the engine's slot plan field for field, and both
// equal the pure references — the O(step) churn replay, the slow schedule's
// ExpectedTag and the per-(step, worker) drop draws. A third planner per slot
// visits only a seeded subset of the steps — a datagram worker catching up
// over lost broadcasts — and must land on the same plan as the one that
// walked every step.
func TestWorkerPlanMatchesEnginePlan(t *testing.T) {
	const steps = 300
	exercised := map[string]int{}
	for _, rc := range legalRoundConfigs(rand.New(rand.NewSource(16)), 3) {
		if err := rc.Validate(); err != nil {
			t.Fatalf("generated config %+v is not legal: %v", rc, err)
		}
		e := roundTestEngine(rc, nil)
		dim := e.params.Dim()
		pkts := rc.Link.Codec.PacketsPerTransfer(dim, rc.Link.MTU)
		workers, jumpers := make([]*Planner, rc.Workers), make([]*Planner, rc.Workers)
		for id := range workers {
			workers[id], jumpers[id] = NewPlanner(&rc, dim, id, 1), NewPlanner(&rc, dim, id, 1)
		}
		rng := rand.New(rand.NewSource(1))
		lastComplete := make([]int, rc.Workers)
		for id := range lastComplete {
			lastComplete[id] = -1
		}
		for step := 0; step < steps; step++ {
			round := e.Begin()
			for id := 0; id < rc.Workers; id++ {
				at := fmt.Sprintf("%+v step %d slot %d", rc, step, id)
				got, want := *workers[id].At(step, id), *e.slots[id].plan
				if got.Phase != want.Phase || got.Rejoin != want.Rejoin || got.Gone() != want.Gone() || got.Tag != want.Tag ||
					got.Lost != want.Lost || !slices.Equal(got.Downlink, want.Downlink) || !slices.Equal(got.Uplink, want.Uplink) ||
					(got.Downlink == nil) != (want.Downlink == nil) || (got.Uplink == nil) != (want.Uplink == nil) {
					t.Fatalf("%s: worker plans %+v, engine plans %+v", at, got, want)
				}
				if rng.Intn(8) == 0 {
					if jumped := *jumpers[id].At(step, id); jumped.Phase != got.Phase || jumped.Rejoin != got.Rejoin || jumped.Tag != got.Tag ||
						jumped.Lost != got.Lost || !slices.Equal(jumped.Downlink, got.Downlink) || !slices.Equal(jumped.Uplink, got.Uplink) {
						t.Fatalf("%s: a planner that jumped here plans %+v, one that walked %+v", at, jumped, got)
					}
				}
				if ref := rc.Churn.Phase(rc.Seed, step, id); got.Phase != ref || got.Gone() != rc.Churn.Permanent(rc.Seed, step, id) {
					t.Fatalf("%s: phase %v gone %v, replay says %v / %v", at, got.Phase, got.Gone(), ref, rc.Churn.Permanent(rc.Seed, step, id))
				}
				// The reference tag, derived the long way round.
				tag := step
				down := DownlinkDrops(rng, make([]bool, pkts), rc.Seed, step, id, rc.Link.ModelLoss)
				switch surv := transport.CountSurvivors(down, pkts); {
				case !got.Phase.Participates():
					tag = -1
				case rc.Async.Enabled():
					tag = rc.Async.ExpectedTag(rc.Seed, step, id)
				case down == nil:
				case surv == pkts:
					lastComplete[id] = step
				case surv > 0 && rc.Link.StaleModels && lastComplete[id] >= 0:
					tag = lastComplete[id]
				default:
					tag = -1
				}
				if got.Tag != tag || !slices.Equal(got.Downlink, down) {
					t.Fatalf("%s: tag %d downlink %v, references say %d %v", at, got.Tag, got.Downlink, tag, down)
				}
				if tag >= 0 {
					up := UplinkDrops(rng, make([]bool, pkts), rc.Seed, step, id, rc.Link.GradLoss)
					if !slices.Equal(got.Uplink, up) {
						t.Fatalf("%s: uplink %v, reference %v", at, got.Uplink, up)
					}
				} else if got.Uplink != nil || got.Lost != 0 {
					t.Fatalf("%s: a slot that submits nothing plans uplink %v lost %d", at, got.Uplink, got.Lost)
				}
				switch {
				case got.Phase == ChurnRejoin:
					exercised["rejoin"]++
				case got.Gone():
					exercised["gone"]++
				case rc.Async.Enabled() && tag >= 0 && tag < step:
					exercised["slow"]++
				case rc.Async.Enabled() && tag < 0:
					exercised["too-stale"]++
				case rc.Link.ModelLoss > 0 && tag >= 0 && tag < step:
					exercised["stale-model"]++
				case rc.Link.ModelLoss > 0 && tag < 0:
					exercised["torn"]++
				case got.Lost > 0:
					exercised["uplink-loss"]++
				}
			}
			round.Expire()
			if _, err := round.Finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, what := range []string{"rejoin", "gone", "slow", "too-stale", "stale-model", "torn", "uplink-loss"} {
		if exercised[what] == 0 {
			t.Errorf("dead generator: no slot ever planned %q", what)
		}
	}
}

// TestLinkSlotsScheduleOnlyTheLinkedSlots pins Link.Slots = k as one plan
// fact: slots k and up have a message link — never an uplink mask, never a
// lost coordinate — slots below k get exactly the masks they get when every
// slot rides the link, and a worker's one-slot planner agrees with the
// engine's on both sides of k.
func TestLinkSlotsScheduleOnlyTheLinkedSlots(t *testing.T) {
	const n, k, dim, steps = 7, 3, 10, 200
	all := RoundConfig{Workers: n, Seed: 21, Async: AsyncConfig{Quorum: 4, Staleness: 2, SlowRate: 0.3},
		Link: Link{MTU: roundTestMTU, GradLoss: 0.3}}
	some := all
	some.Link.Slots = k
	if err := some.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, n + 1} {
		rc := all
		if rc.Link.Slots = bad; rc.Validate() == nil {
			t.Errorf("Link.Slots %d of %d workers accepted", bad, n)
		}
	}
	everyone, linked, workers := NewPlanner(&all, dim, 0, n), NewPlanner(&some, dim, 0, n), make([]*Planner, n)
	for id := range workers {
		workers[id] = NewPlanner(&some, dim, id, 1)
	}
	lost := 0
	for step := 0; step < steps; step++ {
		for id := 0; id < n; id++ {
			want, got, own := everyone.At(step, id), linked.At(step, id), workers[id].At(step, id)
			switch {
			case id >= k && (got.Uplink != nil || got.Lost != 0):
				t.Fatalf("step %d: slot %d is off the link and plans uplink %v, %d lost", step, id, got.Uplink, got.Lost)
			case id < k && (!slices.Equal(got.Uplink, want.Uplink) || got.Lost != want.Lost):
				t.Fatalf("step %d: slot %d plans uplink %v (%d lost) with %d slots on the link, %v (%d) with all",
					step, id, got.Uplink, got.Lost, k, want.Uplink, want.Lost)
			case got.Tag != want.Tag || own.Tag != got.Tag || own.Lost != got.Lost || !slices.Equal(own.Uplink, got.Uplink):
				t.Fatalf("step %d slot %d: worker plans %+v, engine %+v, engine with every slot linked %+v", step, id, *own, *got, *want)
			}
			lost += got.Lost
		}
	}
	if lost == 0 {
		t.Fatal("dead fixture: the linked slots never lost a coordinate")
	}
}

// TestModelsRetainByTag pins the one "models retained by step tag" store
// behind the in-process history ring and both socket workers: the last τ+1
// broadcasts under the slow schedule, the last complete one under stale
// model recoup, nothing in lockstep — and never a model for a tag it was not
// given.
func TestModelsRetainByTag(t *testing.T) {
	at := func(m *Models, step int) float64 {
		if v := m.At(step); v != nil {
			return v[0]
		}
		return -1
	}
	slow := NewModels(&RoundConfig{Async: AsyncConfig{Staleness: 2}}, 1)
	for step := 0; step < 5; step++ {
		slow.Retain(step, tensor.Vector{float64(step)})
	}
	for step, want := range []float64{-1, -1, 2, 3, 4, -1} {
		if got := at(slow, step); got != want {
			t.Errorf("τ=2 after 5 broadcasts: model for step %d is %v, want %v", step, got, want)
		}
	}
	stale := NewModels(&RoundConfig{Link: Link{ModelLoss: 0.1, StaleModels: true}}, 1)
	stale.Retain(3, tensor.Vector{3})
	stale.Retain(7, tensor.Vector{7})
	if at(stale, 3) != -1 || at(stale, 7) != 7 || at(stale, -1) != -1 {
		t.Errorf("stale recoup keeps models %v %v, want only the last complete one", at(stale, 3), at(stale, 7))
	}
	lockstep := NewModels(&RoundConfig{}, 1)
	lockstep.Retain(0, tensor.Vector{1})
	if lockstep.At(0) != nil {
		t.Error("lockstep retains a model no plan can tag")
	}
}
