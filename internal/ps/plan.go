package ps

import (
	"fmt"
	"math/rand"

	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// The plan. What a round expects of each worker — whether it is up, which
// model it trains on, which packets the link eats in each direction — is a
// pure function of the RoundConfig, and the Planner is the one function that
// evaluates it. The round engine runs a Planner over all n slots to know
// what to wait for; every socket worker runs one over its own slot, from the
// same RoundConfig, to know what to do. A slot's timeline depends only on its
// own draws, so the two agree step for step without communicating, which is
// what makes scheduled rounds deadline-free. Each endpoint only executes the
// plan: nothing outside this file evaluates a schedule.

// The four schedule seeds below are each keyed per (step, worker) — never a
// per-endpoint stream — which is what lets two planners that never talk draw
// the same values. The linear forms use fresh primes and the 1<<60..62
// offsets keep the four lattices disjoint for every reachable (step, worker):
// two linear forms alone collide (e.g. step 60 / worker 3 under un-offset
// constants), which would make one schedule's draws bit-identical to
// another's.

// DropSeed seeds the packet-loss schedule of one worker's gradient datagrams
// at one step (UplinkDrops).
func DropSeed(runSeed int64, step, worker int) int64 {
	return runSeed ^ (int64(step)*999983 + int64(worker)*6007 + 11)
}

// ModelDropSeed seeds the packet-loss schedule of the server→worker model
// broadcast at one step (DownlinkDrops, footnote 12's unreliable model
// channel).
func ModelDropSeed(runSeed int64, step, worker int) int64 {
	return runSeed ^ (int64(step)*1000033 + int64(worker)*5003 + 23 + 1<<62)
}

// ChurnSeed seeds the worker crash/rejoin schedule (ChurnConfig): which live
// workers crash this round, and thereby when each rejoins.
func ChurnSeed(runSeed int64, step, worker int) int64 {
	return runSeed ^ (int64(step)*1000151 + int64(worker)*6983 + 41 + 1<<60)
}

// SlowSeed seeds the asynchronous-round slow-worker schedule (AsyncConfig):
// which workers lag this round and by how many steps.
func SlowSeed(runSeed int64, step, worker int) int64 {
	return runSeed ^ (int64(step)*1000121 + int64(worker)*4999 + 37 + 1<<61)
}

// UplinkDrops evaluates the artificial-loss schedule of worker's gradient
// datagrams at step into mask — one entry per packet, true meaning the
// packet is dropped before the socket write — and returns it; at rate 0 it
// returns nil, which every consumer reads as "nothing dropped". The worker
// reads the mask off its plan to drop, the server to know which packets will
// never arrive. rng is caller-owned scratch, reseeded here, so steady-state
// evaluation allocates nothing.
func UplinkDrops(rng *rand.Rand, mask []bool, runSeed int64, step, worker int, rate float64) []bool {
	return drawDrops(rng, mask, DropSeed(runSeed, step, worker), rate)
}

// DownlinkDrops is UplinkDrops' twin for the server→worker model broadcast
// (footnote 12's unreliable model channel), keyed on ModelDropSeed: the
// server drops the scheduled packets before the write, and the worker
// settles a torn broadcast the moment its scheduled survivors are in.
func DownlinkDrops(rng *rand.Rand, mask []bool, runSeed int64, step, worker int, rate float64) []bool {
	return drawDrops(rng, mask, ModelDropSeed(runSeed, step, worker), rate)
}

// drawDrops draws one drop mask from a derived seed — the single
// implementation behind both schedules, so uplink and downlink loss
// semantics can never drift apart.
func drawDrops(rng *rand.Rand, mask []bool, seed int64, rate float64) []bool {
	if rate <= 0 {
		return nil
	}
	rng.Seed(seed)
	for i := range mask {
		mask[i] = rng.Float64() < rate
	}
	return mask
}

// SlotPlan is one worker's share of one step's plan.
type SlotPlan struct {
	// Phase is the churn schedule's verdict (ChurnLive without one). Rejoin
	// is the step a crashing or down slot is scheduled back at, and -1
	// otherwise: for such a slot, that its rejoin budget is spent and it is
	// gone for good.
	Phase  ChurnPhase
	Rejoin int
	// Tag is the step tag the slot's submission carries — the model it
	// trains on — or -1 when it submits nothing: the current step when
	// fresh, an older one under the slow schedule or after a torn broadcast
	// answered on the last complete model.
	Tag int
	// Downlink and Uplink are the drop masks of the step's model broadcast
	// and gradient datagrams, one entry per packet, true = dropped before
	// the socket write; nil means nothing is dropped (as on the uplink of a
	// slot off the link). They are valid until the planner advances. Lost
	// counts the coordinates Uplink drops.
	Downlink, Uplink []bool
	Lost             int
}

// Gone reports that the slot crashed with no rejoin left.
func (p *SlotPlan) Gone() bool { return !p.Phase.Participates() && p.Rejoin < 0 }

// timeline is one slot's plan plus the state that carries between steps.
type timeline struct {
	SlotPlan
	down    bool // crashed and not back yet
	rejoins int  // rejoin budget spent so far
	// lastComplete is the last step whose broadcast was scheduled loss-free
	// end to end (-1 before the first): the tag of a stale-model answer.
	lastComplete int
	downBuf      []bool // mask storage, sized once when the link schedules that loss
	upBuf        []bool
}

// Planner evaluates the seeded schedules incrementally for a run of
// consecutive slots: each step of each slot is computed once, in O(1) plus
// the packets of the masks it draws, and nothing is allocated after
// construction.
type Planner struct {
	cfg   RoundConfig
	first int
	// dim, pkts and per are the model dimension, packets per transfer and
	// coordinates per packet (the last two set only when the link schedules
	// loss).
	dim, pkts, per int
	// carries reports that a step's plan depends on earlier steps (the churn
	// state, the last complete broadcast), so a jump must walk them.
	carries bool
	rng     *rand.Rand
	step    int // last step evaluated, -1 before the first
	slots   []timeline
}

// NewPlanner builds the evaluator for slots first..first+count-1 of a
// validated configuration whose model has dim parameters.
func NewPlanner(cfg *RoundConfig, dim, first, count int) *Planner {
	p := &Planner{
		cfg: *cfg, first: first, dim: dim, step: -1,
		carries: cfg.Churn.Enabled() || cfg.Link.StaleModels && cfg.Link.ModelLoss > 0,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		slots:   make([]timeline, count),
	}
	if l := cfg.Link; l.GradLoss > 0 || l.ModelLoss > 0 {
		p.per = l.Codec.CoordsPerPacket(l.MTU)
		p.pkts = l.Codec.PacketsPerTransfer(dim, l.MTU)
	}
	for i := range p.slots {
		t := &p.slots[i]
		t.Rejoin, t.lastComplete = -1, -1
		if cfg.Link.ModelLoss > 0 {
			t.downBuf = make([]bool, p.pkts)
		}
		if cfg.Link.GradLoss > 0 && cfg.Link.carries(first+i) {
			t.upBuf = make([]bool, p.pkts)
		}
	}
	return p
}

// At returns slot id's plan for step, first advancing the planner there.
// Steps never go backwards. They may jump — a datagram worker that lost
// broadcasts catches up to the one that reached it — and a step jumped over
// is walked only for what it carries into later ones (the crash/rejoin state,
// the last complete broadcast), or not at all when the configuration
// schedules neither: its tag and uplink mask are never drawn. A caller bounds the
// jump it takes from an unauthenticated packet (transport.ModelCollector
// admits no broadcast further ahead than its horizon).
func (p *Planner) At(step, id int) *SlotPlan {
	if step < p.step {
		panic(fmt.Sprintf("ps: Planner.At(%d) after step %d", step, p.step))
	}
	if step > p.step {
		if !p.carries {
			p.step = step - 1
		}
		for p.step++; p.step < step; p.step++ {
			for i := range p.slots {
				p.carry(&p.slots[i], p.first+i)
			}
		}
		for i := range p.slots {
			p.advance(&p.slots[i], p.first+i)
		}
	}
	return &p.slots[id-p.first].SlotPlan
}

// churned reports that slot id is down now or has rejoined before: a
// connection of its that dies was torn down on the schedule's cue.
func (p *Planner) churned(id int) bool {
	t := &p.slots[id-p.first]
	return t.down || t.rejoins > 0
}

// Downlink returns the drop mask of slot id's model broadcast at any step,
// reached or not, in a fresh mask the caller keeps (nil on a loss-free
// downlink). It is the stateless part of the plan — keyed per (step, worker),
// O(packets) for any step — which is what a datagram worker may consult about
// a broadcast whose step tag it cannot trust yet.
func (p *Planner) Downlink(step, id int) []bool {
	return DownlinkDrops(p.rng, make([]bool, p.pkts), p.cfg.Seed, step, id, p.cfg.Link.ModelLoss)
}

// carry moves one slot's timeline to p.step as far as later steps depend on
// it: the churn phase and the step's downlink mask, which decides whether its
// broadcast becomes the last complete one.
func (p *Planner) carry(t *timeline, id int) {
	cfg, step := &p.cfg, p.step
	// Churn: crash draws happen only while live (never at step 0, never on
	// the rejoin round itself); a crash with budget left schedules the
	// rejoin DownSteps rounds later, one past the budget is final.
	switch {
	case t.down && step == t.Rejoin:
		t.down, t.Phase, t.Rejoin = false, ChurnRejoin, -1
	case t.down:
		t.Phase = ChurnDown
	case cfg.Churn.Enabled() && step > 0 && churnCrashDraw(p.rng, cfg.Seed, step, id, cfg.Churn.Rate):
		t.down, t.Phase, t.Rejoin = true, ChurnCrash, -1
		if t.rejoins < cfg.Churn.MaxRejoins {
			t.rejoins++
			t.Rejoin = step + cfg.Churn.DownSteps
		}
	default:
		t.Phase = ChurnLive
	}
	t.Downlink = DownlinkDrops(p.rng, t.downBuf, cfg.Seed, step, id, cfg.Link.ModelLoss)
	if t.Phase.Participates() && !cfg.Async.Enabled() && t.Downlink != nil &&
		transport.LostCoords(t.Downlink, p.dim, p.per) == 0 {
		t.lastComplete = step
	}
}

// advance moves one slot's timeline to p.step and draws the rest of its plan.
func (p *Planner) advance(t *timeline, id int) {
	cfg, step := &p.cfg, p.step
	p.carry(t, id)
	t.Tag = step
	switch {
	case !t.Phase.Participates():
		// Crashed this round (takes the broadcast, submits nothing) or down.
		t.Tag = -1
	case cfg.Async.Enabled():
		// The slow schedule decides: the current step for a fresh worker,
		// an older one for a slow worker training on a retained model, -1
		// when the lag breaches τ and the worker sits the round out.
		t.Tag = cfg.Async.expectedTag(p.rng, cfg.Seed, step, id)
	case t.Downlink != nil && t.lastComplete != step:
		// The downlink schedule decides: a torn broadcast is answered on the
		// last complete model under StaleModels, and not at all when the
		// worker cannot submit (skip policy, no complete model yet, or no
		// surviving packet — a broadcast the worker never even learns of).
		t.Tag = -1
		if cfg.Link.StaleModels && t.lastComplete >= 0 && transport.LostCoords(t.Downlink, p.dim, p.per) < p.dim {
			t.Tag = t.lastComplete
		}
	}
	// The uplink schedule is always keyed on the round, not the stale tag,
	// so two stale submissions off the same model never reuse a mask; a slot
	// off the link (Link.Slots) has none.
	t.Uplink = nil
	if t.Tag >= 0 && cfg.Link.carries(id) {
		t.Uplink = UplinkDrops(p.rng, t.upBuf, cfg.Seed, step, id, cfg.Link.GradLoss)
	}
	t.Lost = transport.LostCoords(t.Uplink, p.dim, p.per)
}

// Models retains the broadcast models a later step's plan can still tag: the
// last Staleness+1 under the slow schedule, the last complete one under
// stale model recoup, none when every submission is fresh. The in-process
// cluster keeps one for all its workers, a socket worker its own.
type Models struct {
	steps  []int
	params []tensor.Vector
}

// NewModels sizes the store for a configuration. A slot's vector is
// allocated by its first Retain, so memory follows the models actually
// retained — at most min(Staleness+1, steps run) — not the bound.
func NewModels(cfg *RoundConfig) *Models {
	keep := 0
	if cfg.Async.Staleness > 0 {
		keep = cfg.Async.Staleness + 1
	} else if cfg.Link.StaleModels {
		keep = 1
	}
	m := &Models{steps: make([]int, keep), params: make([]tensor.Vector, keep)}
	for i := range m.steps {
		m.steps[i] = -1
	}
	return m
}

// Retain copies the complete model broadcast at step into the store,
// displacing the oldest one held.
func (m *Models) Retain(step int, params tensor.Vector) {
	if len(m.steps) > 0 {
		i := step % len(m.steps)
		m.steps[i] = step
		m.params[i] = append(m.params[i][:0], params...)
	}
}

// At returns the model retained for step, or nil when it is not held (never
// received, or displaced). Callers must not modify it.
func (m *Models) At(step int) tensor.Vector {
	if len(m.steps) > 0 && step >= 0 && m.steps[step%len(m.steps)] == step {
		return m.params[step%len(m.steps)]
	}
	return nil
}
