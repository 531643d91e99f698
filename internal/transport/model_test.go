package transport

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"aggregathor/internal/tensor"
)

// modelFixture builds a bound model endpoint plus a sender toward it.
func modelFixture(t *testing.T, dim, mtu int) (*UDPReceiver, *UDPSender, Codec) {
	t.Helper()
	codec := Codec{}
	recv, err := ListenUDP("127.0.0.1:0", codec, DropGradient, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	recv.asm.maxDim = dim
	send, err := DialUDP(recv.Addr(), codec, mtu, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { send.Close() })
	return recv, send, codec
}

func modelParams(dim int) tensor.Vector {
	v := tensor.NewVector(dim)
	for i := range v {
		v[i] = float64(i) * 0.5
	}
	return v
}

// sendModelPackets splits one broadcast and writes the packets whose index
// is not masked out (the server-side scheduled drop).
func sendModelPackets(t *testing.T, send *UDPSender, codec Codec, step, mtu int, params tensor.Vector, drop []bool) {
	t.Helper()
	pkts := codec.Split(&GradientMsg{Worker: ModelWorkerID, Step: step, Grad: params}, mtu)
	for i := range pkts {
		if i < len(drop) && drop[i] {
			continue
		}
		if err := send.SendPackets([]Packet{pkts[i]}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// offerModel is sendModelPackets without the socket: it offers the
// collector the packets of one broadcast whose index is not masked out,
// assembling the expected broadcast in into.
func offerModel(col *ModelCollector, step int, params, into tensor.Vector, drop []bool) {
	pkts := col.cfg.Codec.Split(&GradientMsg{Worker: ModelWorkerID, Step: step, Grad: params}, col.cfg.MTU)
	for i := range pkts {
		if i >= len(drop) || !drop[i] {
			col.Offer(&pkts[i], into)
		}
	}
}

// recvModel is a worker's receive loop for the socket tests: it offers col
// every datagram recv delivers, assembling into into, until a broadcast
// settles, and gives the in-flight broadcast up when a read waits longer
// than quiet.
func recvModel(recv *UDPReceiver, col *ModelCollector, into tensor.Vector, quiet time.Duration) (*ModelEvent, error) {
	for {
		if ev := col.Settled(); ev != nil {
			return ev, nil
		}
		pkt, err := recv.RecvPacket(quiet)
		switch {
		case err == nil:
			col.Offer(pkt, into)
		case errors.Is(err, ErrTimeout) && col.InFlight():
			col.Expire()
		default:
			return nil, err
		}
	}
}

// TestModelCollectorCompleteBroadcasts pins the loss-free fast path: every
// broadcast arrives whole and is delivered in step order with intact
// parameters.
func TestModelCollectorCompleteBroadcasts(t *testing.T) {
	const dim, mtu = 100, 128
	col := NewModelCollector(ModelCollectorConfig{Dim: dim, MTU: mtu})
	params, into := modelParams(dim), tensor.NewVector(dim)
	for step := 0; step < 3; step++ {
		offerModel(col, step, params, into, nil)
	}
	for step := 0; step < 3; step++ {
		ev := col.Settled()
		if ev == nil || !ev.Complete || ev.Step != step {
			t.Fatalf("event %+v, want complete step %d", ev, step)
		}
		if !sameBits(ev.Params, params) {
			t.Fatalf("step %d corrupted", step)
		}
	}
	if ev := col.Settled(); ev != nil {
		t.Fatalf("event %+v with nothing more offered", ev)
	}
}

// TestModelCollectorReceivesIntoTheCallersVector pins where coordinates land.
// The expected broadcast is assembled in the vector Offer was given and
// comes back aliasing it; a later broadcast buffered while that one is still
// in flight gets a vector of its own and never writes the caller's; a torn
// broadcast comes back with no Params.
func TestModelCollectorReceivesIntoTheCallersVector(t *testing.T) {
	const dim, mtu = 100, 128
	codec := Codec{}
	pktCount := codec.PacketsPerTransfer(dim, mtu)
	if pktCount < 3 {
		t.Fatalf("fixture needs >= 3 packets per broadcast, got %d", pktCount)
	}
	tornMask := make([]bool, pktCount)
	tornMask[1] = true
	schedule := func(step int) []bool {
		if step == 2 {
			return tornMask
		}
		return make([]bool, pktCount)
	}
	col := NewModelCollector(ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec, Schedule: schedule})
	sentinel := func() tensor.Vector {
		v := tensor.NewVector(dim)
		for i := range v {
			v[i] = -7
		}
		return v
	}
	p0, p1 := modelParams(dim), modelParams(dim)
	for i := range p1 {
		p1[i] += 1000
	}
	// Half of step 0, the whole of step 1, then the rest of step 0.
	first := make([]bool, pktCount)
	for i := pktCount / 2; i < pktCount; i++ {
		first[i] = true
	}
	rest := make([]bool, pktCount)
	for i := range rest {
		rest[i] = !first[i]
	}
	into := sentinel()
	offerModel(col, 0, p0, into, first)
	offerModel(col, 1, p1, into, nil)
	offerModel(col, 0, p0, into, rest)

	ev := col.Settled()
	if ev == nil || !ev.Complete || ev.Step != 0 {
		t.Fatalf("event %+v, want complete step 0", ev)
	}
	if &ev.Params[0] != &into[0] {
		t.Fatal("the expected broadcast was not received into the caller's vector")
	}
	if !sameBits(into, p0) {
		t.Fatal("step 0 landed wrong in the caller's vector")
	}
	ev = col.Settled()
	if ev == nil || !ev.Complete || ev.Step != 1 {
		t.Fatalf("event %+v, want complete step 1 from the buffer", ev)
	}
	if &ev.Params[0] == &into[0] || !sameBits(ev.Params, p1) {
		t.Fatal("the buffered broadcast did not arrive whole in a vector of its own")
	}
	if !sameBits(into, p0) {
		t.Fatal("the buffered broadcast wrote into the caller's vector")
	}
	into2 := sentinel()
	offerModel(col, 2, p1, into2, tornMask)
	if ev = col.Settled(); ev == nil || !ev.Torn || ev.Step != 2 || ev.Params != nil {
		t.Fatalf("event %+v, want torn step 2 with no Params", ev)
	}
}

// TestModelCollectorTornSettlesWithoutDeadline: when the shared schedule
// says a packet was dropped at the server, the collector settles the torn
// broadcast the moment the scheduled survivors are in — it must NOT need an
// Expire for a datagram it knows can never arrive.
func TestModelCollectorTornSettlesWithoutDeadline(t *testing.T) {
	const dim, mtu = 100, 128
	codec := Codec{}
	pktCount := codec.PacketsPerTransfer(dim, mtu)
	if pktCount < 3 {
		t.Fatalf("fixture needs >= 3 packets per broadcast, got %d", pktCount)
	}
	drops := map[int][]bool{0: make([]bool, pktCount)}
	drops[0][1] = true // packet 1 of step 0 is a scheduled drop
	schedule := func(step int) []bool {
		if d, ok := drops[step]; ok {
			return d
		}
		return make([]bool, pktCount)
	}
	col := NewModelCollector(ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec, Schedule: schedule})
	params, into := modelParams(dim), tensor.NewVector(dim)
	offerModel(col, 0, params, into, drops[0])
	offerModel(col, 1, params, into, nil)

	if ev := col.Settled(); ev == nil || !ev.Torn || ev.Step != 0 {
		t.Fatalf("event %+v, want torn step 0 with no Expire", ev)
	}
	if col.pending[0] != nil {
		t.Fatal("torn partial not released")
	}
	if ev := col.Settled(); ev == nil || !ev.Complete || ev.Step != 1 {
		t.Fatalf("event %+v, want complete step 1", ev)
	}
}

// TestModelCollectorSkipsFullyDroppedSteps: a broadcast whose every packet
// is a scheduled drop produces no event at all — the worker (like the
// server) knows nothing of it can arrive and moves straight to the next
// step with survivors.
func TestModelCollectorSkipsFullyDroppedSteps(t *testing.T) {
	const dim, mtu = 60, 128
	pktCount := Codec{}.PacketsPerTransfer(dim, mtu)
	schedule := func(step int) []bool {
		mask := make([]bool, pktCount)
		if step == 0 {
			for i := range mask {
				mask[i] = true
			}
		}
		return mask
	}
	col := NewModelCollector(ModelCollectorConfig{Dim: dim, MTU: mtu, Schedule: schedule})
	offerModel(col, 1, modelParams(dim), tensor.NewVector(dim), nil)
	if ev := col.Settled(); ev == nil || !ev.Complete || ev.Step != 1 {
		t.Fatalf("event %+v, want complete step 1 (step 0 skipped silently)", ev)
	}
}

// TestModelCollectorSkipTo pins how a caller with state the collector cannot
// see (a churn worker that knows it is not broadcast to while down) moves it
// on: the skipped steps' partials are released, their datagrams become late
// duplicates, and the broadcast at the target — here one that had already
// arrived whole and was stashed — is delivered at once, with no further
// datagram and no Expire. Moving backwards is a no-op.
func TestModelCollectorSkipTo(t *testing.T) {
	const dim, mtu = 100, 128
	col := NewModelCollector(ModelCollectorConfig{Dim: dim, MTU: mtu})
	params, into := modelParams(dim), tensor.NewVector(dim)
	// A partial for a step about to be skipped and the whole target broadcast,
	// both stashed before step 0 settles.
	offerModel(col, 2, params, into, []bool{false, true})
	offerModel(col, 4, params, into, nil)
	offerModel(col, 0, params, into, nil)
	if ev := col.Settled(); ev == nil || !ev.Complete || ev.Step != 0 || len(col.pending) != 2 {
		t.Fatalf("event %+v pending %d, want complete step 0 with steps 2 and 4 stashed", ev, len(col.pending))
	}
	col.SkipTo(4)
	col.SkipTo(1)
	if ev := col.Settled(); ev == nil || !ev.Complete || ev.Step != 4 {
		t.Fatalf("event %+v after SkipTo(4), want complete step 4", ev)
	}
	if len(col.pending) != 0 {
		t.Fatalf("%d broadcasts pending after step 4: the skipped steps were kept", len(col.pending))
	}
	offerModel(col, 2, params, into, nil)
	if ev := col.Settled(); ev != nil || col.InFlight() {
		t.Fatalf("event %+v in flight %v from a skipped step's datagrams", ev, col.InFlight())
	}
}

// TestModelCollectorHorizon pins how far a datagram's step claim can carry
// the collector. Catching up after a genuine loss jumps to the earliest
// broadcast that arrived whole, so a forged whole broadcast is a lever: one
// claiming step 2^40 used to move the worker there — past every genuine round
// of the run, and onto a step its caller's plan had to walk to. Nothing past
// the horizon is admitted; a forged broadcast inside it costs at most the
// rounds up to it.
func TestModelCollectorHorizon(t *testing.T) {
	const dim, mtu = 100, 128
	col := NewModelCollector(ModelCollectorConfig{Dim: dim, MTU: mtu})
	params, into := modelParams(dim), tensor.NewVector(dim)
	offerModel(col, 1<<40, params, into, nil)
	offerModel(col, modelHorizon+1, params, into, nil)
	offerModel(col, 0, params, into, nil)
	if ev := col.Settled(); ev == nil || !ev.Complete || ev.Step != 0 || len(col.pending) != 0 {
		t.Fatalf("event %+v with %d broadcasts pending, want complete step 0 and the forged ones refused", ev, len(col.pending))
	}
	// Exactly at the horizon of step 1 a whole broadcast is stashed, and
	// giving up on step 1 ends in the jump to it.
	offerModel(col, 1+modelHorizon, params, into, nil)
	if ev := col.Settled(); ev != nil {
		t.Fatalf("event %+v before step 1 was given up", ev)
	}
	col.Expire()
	if ev := col.Settled(); ev == nil || !ev.Lost || ev.Step != 1 {
		t.Fatalf("event %+v, want step 1 lost at Expire", ev)
	}
	if ev := col.Settled(); ev == nil || !ev.Complete || ev.Step != 1+modelHorizon {
		t.Fatalf("event %+v, want the jump to complete step %d", ev, 1+modelHorizon)
	}
}

// TestModelCollectorGenuineLossBoundedWait is the endpoint-wedge regression
// (a genuinely dropped model datagram used to leave the worker blocked in
// RecvModel for the full one-hour idle timeout with the partial pinned
// forever): when the caller's deadline passes on packets the schedule
// cannot account for, the torn partial is evicted and the broadcast
// reported lost.
func TestModelCollectorGenuineLossBoundedWait(t *testing.T) {
	const dim, mtu = 100, 128
	col := NewModelCollector(ModelCollectorConfig{Dim: dim, MTU: mtu})
	into := tensor.NewVector(dim)
	// Simulate a kernel drop: only the first packet of step 0 is delivered.
	pkts := col.cfg.Codec.Split(&GradientMsg{Worker: ModelWorkerID, Step: 0, Grad: modelParams(dim)}, mtu)
	if len(pkts) < 2 {
		t.Fatal("fixture needs a multi-packet broadcast")
	}
	col.Offer(&pkts[0], into)
	if ev := col.Settled(); ev != nil || !col.InFlight() {
		t.Fatalf("event %+v in flight %v, want step 0 in flight and unsettled", ev, col.InFlight())
	}
	col.Expire()
	if ev := col.Settled(); ev == nil || !ev.Lost || ev.Step != 0 {
		t.Fatalf("event %+v, want lost step 0", ev)
	}
	if col.pending[0] != nil || col.InFlight() {
		t.Fatalf("lost broadcast's partial still held: %d pending", len(col.pending))
	}
	// The next complete broadcast is delivered normally afterwards.
	offerModel(col, 1, modelParams(dim), into, nil)
	if ev := col.Settled(); ev == nil || !ev.Complete || ev.Step != 1 {
		t.Fatalf("event %+v, want complete step 1 after recovery", ev)
	}
}

// TestModelCollectorCatchUpJump pins the fall-behind recovery rate: when a
// buffered later broadcast has already fully resolved, one Expire must
// carry the collector over the whole unrecoverable range — a suspected
// worker that could only advance one step per round timeout while the
// server keeps stepping would fall behind forever.
func TestModelCollectorCatchUpJump(t *testing.T) {
	const dim, mtu = 100, 128
	col := NewModelCollector(ModelCollectorConfig{Dim: dim, MTU: mtu})
	params, into := modelParams(dim), tensor.NewVector(dim)
	// Step 0 is genuinely torn (one packet only); steps 1-4 are genuinely
	// lost outright; steps 5 and 6 arrive whole and buffer in the window.
	pkts := col.cfg.Codec.Split(&GradientMsg{Worker: ModelWorkerID, Step: 0, Grad: params}, mtu)
	col.Offer(&pkts[0], into)
	offerModel(col, 5, params, into, nil)
	offerModel(col, 6, params, into, nil)

	col.Expire()
	if ev := col.Settled(); ev == nil || !ev.Lost || ev.Step != 0 {
		t.Fatalf("first event %+v, want step 0 lost", ev)
	}
	if ev := col.Settled(); ev == nil || !ev.Complete || ev.Step != 5 {
		t.Fatalf("event after catch-up %+v, want complete step 5: one Expire per step instead of a jump", ev)
	}
	if ev := col.Settled(); ev == nil || !ev.Complete || ev.Step != 6 {
		t.Fatalf("event %+v, want complete step 6 from the buffer", ev)
	}
}

// TestModelCollectorRejectsConflictingMetadata pins that spoofed packets the
// reassembler rejects (wrong dimension, conflicting repeated metadata)
// cannot count toward torn-resolution: on a loss-free channel the broadcast
// must still complete even when a conflicting packet per survivor index
// lands first.
func TestModelCollectorRejectsConflictingMetadata(t *testing.T) {
	const dim, mtu = 100, 128
	codec := Codec{}
	per := codec.CoordsPerPacket(mtu)
	pktCount := codec.PacketsPerTransfer(dim, mtu)
	col := NewModelCollector(ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec})
	params, into := modelParams(dim), tensor.NewVector(dim)
	real := codec.Split(&GradientMsg{Worker: ModelWorkerID, Step: 0, Grad: params}, mtu)
	// The genuine first packet pins the broadcast's metadata...
	col.Offer(&real[0], into)
	// ...then a conflicting-Loss spoof for every remaining survivor index
	// (each rejected by the reassembler — pre-fix they still counted
	// toward torn-resolution and destroyed the in-flight broadcast) plus a
	// wrong-Dim spoof.
	for idx := 1; idx < pktCount; idx++ {
		n := per
		if idx == pktCount-1 {
			n = dim - idx*per
		}
		col.Offer(&Packet{Worker: ModelWorkerID, Step: 0, Loss: 99.5, Dim: dim,
			Offset: idx * per, Coords: make([]float64, n)}, into)
	}
	col.Offer(&Packet{Worker: ModelWorkerID, Step: 0, Dim: dim + 1, Offset: 0,
		Coords: make([]float64, 1)}, into)
	if ev := col.Settled(); ev != nil {
		t.Fatalf("event %+v from spoofed metadata", ev)
	}
	// The genuine remainder lands last and must still complete the model.
	for i := 1; i < len(real); i++ {
		col.Offer(&real[i], into)
	}
	ev := col.Settled()
	if ev == nil || !ev.Complete || ev.Step != 0 {
		t.Fatalf("event %+v, want complete step 0 (spoofed metadata faked a torn broadcast)", ev)
	}
	if !sameBits(ev.Params, params) {
		t.Fatal("coordinates corrupted by spoofed packets")
	}
}

// TestModelCollectorHostileFutureStepsBounded is the worker-side
// reassembler-growth regression: spoofed datagrams claiming distinct future
// steps used to each pin a maxDim-sized partial indefinitely (the model
// endpoint never evicted anything). The collector caps buffered future
// broadcasts, refuses gradient-tagged spoofs before their coordinates land,
// and the legitimate broadcast still assembles through the spam.
func TestModelCollectorHostileFutureStepsBounded(t *testing.T) {
	const dim, mtu = 100, 128
	col := NewModelCollector(ModelCollectorConfig{Dim: dim, MTU: mtu})
	codec, into := col.cfg.Codec, tensor.NewVector(dim)
	// 40 distinct future steps, one packet each, plus gradient-tagged spam.
	for step := 5; step < 45; step++ {
		pkts := codec.Split(&GradientMsg{Worker: ModelWorkerID, Step: step, Grad: modelParams(dim)}, mtu)
		col.Offer(&pkts[0], into)
	}
	for step := 0; step < 10; step++ {
		pkts := codec.Split(&GradientMsg{Worker: 3, Step: step, Grad: modelParams(dim)}, mtu)
		col.Offer(&pkts[0], into)
	}
	if len(col.pending) > DefaultModelWindow {
		t.Fatalf("collector holds %d partials after spam, cap is %d", len(col.pending), DefaultModelWindow)
	}
	// The legitimate broadcast lands after the spam.
	params := modelParams(dim)
	offerModel(col, 0, params, into, nil)
	ev := col.Settled()
	if ev == nil || !ev.Complete || ev.Step != 0 || !sameBits(ev.Params, params) {
		t.Fatalf("event %+v, want the legitimate complete step 0 despite hostile spam", ev)
	}
	if len(col.pending) > DefaultModelWindow {
		t.Fatalf("collector tracks %d pending broadcasts, cap is %d", len(col.pending), DefaultModelWindow)
	}
}

// TestDialUDPRejectsSubMinimumMTU is the MTU lower-bound regression: an MTU
// smaller than the packet header plus one coordinate (e.g. 16) used to pass
// validation, after which CoordsPerPacket clamped to 1 and every datagram
// silently exceeded the configured budget.
func TestDialUDPRejectsSubMinimumMTU(t *testing.T) {
	for _, codec := range []Codec{{}, {Float32: true}} {
		if _, err := DialUDP("127.0.0.1:1", codec, 16, 0, 1); err == nil {
			t.Fatalf("float32=%v: MTU 16 accepted (below minimum %d)", codec.Float32, codec.MinMTU())
		}
		if _, err := DialUDP("127.0.0.1:1", codec, codec.MinMTU()-1, 0, 1); err == nil {
			t.Fatalf("float32=%v: MTU %d accepted (one below minimum)", codec.Float32, codec.MinMTU()-1)
		}
		if err := NewUDPFanOut(codec, codec.MinMTU()-1, 0, 0).Dial("127.0.0.1:1"); err == nil {
			t.Fatalf("float32=%v: fan-out dialled at MTU %d (one below minimum)", codec.Float32, codec.MinMTU()-1)
		}
		send, err := DialUDP("127.0.0.1:1", codec, codec.MinMTU(), 0, 1)
		if err != nil {
			t.Fatalf("float32=%v: minimum MTU rejected: %v", codec.Float32, err)
		}
		send.Close()
		// Zero still selects the default.
		send, err = DialUDP("127.0.0.1:1", codec, 0, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		send.Close()
	}
}

// modelOracle is FuzzModelCollector's independent account of what a
// collector must do: which genuine packets it admitted, per step, and which
// step it waits for. It shares no code with the collector but the shared
// schedule, and reads none of its state.
type modelOracle struct {
	pkts     int
	schedule func(step int) []bool
	expected int
	admitted map[int]map[int]bool // step → packet indexes in
	surv     map[int][]int        // survivors, memoised
}

// survivors returns the packet indexes of step s the schedule lets through.
func (o *modelOracle) survivors(s int) []int {
	if idx, ok := o.surv[s]; ok {
		return idx
	}
	idx := []int{}
	mask := []bool(nil)
	if o.schedule != nil {
		mask = o.schedule(s)
	}
	for i := 0; i < o.pkts; i++ {
		if i >= len(mask) || !mask[i] {
			idx = append(idx, i)
		}
	}
	o.surv[s] = idx
	return idx
}

func (o *modelOracle) resolved(s int) bool {
	surv := o.survivors(s)
	if len(surv) == 0 || len(o.admitted[s]) == 0 {
		return false
	}
	for _, i := range surv {
		if !o.admitted[s][i] {
			return false
		}
	}
	return true
}

// advance skips fully dropped steps.
func (o *modelOracle) advance() {
	for len(o.survivors(o.expected)) == 0 {
		o.expected++
	}
}

// skipTo releases every step below s and waits for s.
func (o *modelOracle) skipTo(s int) {
	if s <= o.expected {
		return
	}
	for t := range o.admitted {
		if t < s {
			delete(o.admitted, t)
		}
	}
	o.expected = s
}

// offer admits genuine, unmasked packet idx of step s when the collector
// must: current or future within the horizon, inside the window, not
// resolved yet.
func (o *modelOracle) offer(s, idx int) {
	o.advance()
	if s < o.expected || s-o.expected > modelHorizon || !slices.Contains(o.survivors(s), idx) || o.resolved(s) {
		return
	}
	if o.admitted[s] == nil {
		if s != o.expected && len(o.admitted) >= DefaultModelWindow {
			return
		}
		o.admitted[s] = map[int]bool{}
	}
	o.admitted[s][idx] = true
}

// expire gives the expected step up when anything is in flight: Lost for
// it, then the jump to the earliest resolved buffered step, else one step.
func (o *modelOracle) expire() (lost int, ok bool) {
	o.advance()
	if len(o.admitted) == 0 {
		return 0, false
	}
	lost, target, found := o.expected, o.expected+1, false
	for s := range o.admitted {
		if s > lost && o.resolved(s) && (!found || s < target) {
			target, found = s, true
		}
	}
	o.skipTo(target)
	return lost, true
}

// settle pops every settled step in order, as Settled must report them.
func (o *modelOracle) settle() (events []ModelEvent) {
	for o.advance(); o.resolved(o.expected); o.advance() {
		torn := len(o.survivors(o.expected)) < o.pkts
		events = append(events, ModelEvent{Step: o.expected, Complete: !torn, Torn: torn})
		delete(o.admitted, o.expected)
		o.expected++
	}
	return events
}

// FuzzModelCollector drives a collector with no socket through hostile
// streams — steps behind, inside the window, at and past the horizon;
// off-grid and negative offsets; wrong tail lengths; masked indexes;
// duplicates; gradient-tagged, loss-carrying and wrong-dimension headers —
// with Expire and SkipTo interleaved, and checks every event against
// modelOracle: strictly increasing steps, none for a fully dropped step,
// Complete iff nothing scheduled dropped and Torn iff something did with
// every survivor in, a complete broadcast bit-equal to what was sent, at
// most DefaultModelWindow future partials held, and an Expire reporting the
// expected step Lost before its jump.
func FuzzModelCollector(f *testing.F) {
	f.Add([]byte{40, 3, 0, 7, 0, 0, 7, 1, 0, 5, 0, 0})
	f.Add([]byte{99, 0, 1, 7, 0, 0, 0, 1, 2, 5, 0, 0, 7, 2, 0, 6, 3, 0})
	f.Add([]byte{17, 5, 2, 2, 2, 0, 2, 2, 1, 7, 0, 0, 5, 0, 0, 7, 1, 0})
	f.Add([]byte{200, 1, 1, 24, 1, 0, 32, 1, 1, 40, 1, 2, 48, 1, 0, 56, 1, 0, 7, 3, 0, 5, 0, 0})
	f.Add([]byte{64, 7, 2, 0, 3, 0, 7, 1, 0, 7, 2, 0, 7, 3, 0, 7, 4, 0, 5, 0, 0, 6, 2, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		dim, per, mode := 1+int(in[0]), 2+int(in[1]%9), in[2]%3
		in = in[3:]
		pkts := (dim + per - 1) / per
		var schedule func(step int) []bool
		if mode > 0 {
			schedule = func(step int) []bool {
				mask := make([]bool, pkts)
				h := uint64(step)*0x9e3779b97f4a7c15 + uint64(mode)
				all := h>>60 < 3 // a fully dropped step, 3 in 16
				for i := range mask {
					h ^= h >> 29
					h *= 0xbf58476d1ce4e5b9
					mask[i] = all || h>>62 == 0
				}
				return mask
			}
		}
		col := NewModelCollector(ModelCollectorConfig{Dim: dim, MTU: packetHeaderLen + 8*per, Schedule: schedule})
		o := &modelOracle{pkts: pkts, schedule: schedule, admitted: map[int]map[int]bool{}, surv: map[int][]int{}}
		if col.per != per || col.pktCount != pkts {
			t.Fatalf("%d packets of %d coordinates, want %d of %d", col.pktCount, col.per, pkts, per)
		}
		coords := func(s, lo, hi int) tensor.Vector {
			v := tensor.NewVector(hi - lo)
			for i := range v {
				v[i] = float64(s%4096)*1024 + float64(lo+i)
			}
			return v
		}
		genuine := func(s, idx int) Packet {
			off := idx * per
			return Packet{Worker: ModelWorkerID, Step: s, Dim: dim, Offset: off, Coords: coords(s, off, min(off+per, dim))}
		}
		into, last := tensor.NewVector(dim), -1
		check := func(op string) {
			want := o.settle()
			for i := 0; ; i++ {
				ev := col.Settled()
				if ev == nil {
					if i != len(want) {
						t.Fatalf("%s: %d events, the oracle settles %v", op, i, want)
					}
					break
				}
				if i >= len(want) || ev.Step != want[i].Step || ev.Complete != want[i].Complete || ev.Torn != want[i].Torn || ev.Lost != want[i].Lost {
					t.Fatalf("%s: event %d is %+v, the oracle settles %v", op, i, ev, want)
				}
				if ev.Step <= last || len(o.survivors(ev.Step)) == 0 {
					t.Fatalf("%s: event for step %d after step %d (survivors %v)", op, ev.Step, last, o.survivors(ev.Step))
				}
				if ev.Complete != (ev.Params != nil) || ev.Complete && !sameBits(ev.Params, coords(ev.Step, 0, dim)) {
					t.Fatalf("%s: step %d complete %v with Params %v", op, ev.Step, ev.Complete, ev.Params)
				}
				last = ev.Step
			}
			future := 0
			for s := range col.pending {
				if s != o.expected {
					future++
				}
			}
			if future > DefaultModelWindow || len(col.pending) != len(o.admitted) {
				t.Fatalf("%s: collector holds %d partials (%d future), the oracle %d", op, len(col.pending), future, len(o.admitted))
			}
		}
		for ; len(in) >= 3; in = in[3:] {
			op, a, b := in[0], int(in[1]), int(in[2])
			o.advance()
			s := o.expected + a%5 // inside the window
			switch a % 4 {
			case 0:
				s = o.expected - 1 - b%3 // behind
			case 1:
				s = o.expected + modelHorizon - 1 + b%3 // at the horizon and past it
			}
			idx := b % o.pkts
			switch op % 8 {
			case 5:
				lost, ok := o.expire()
				col.Expire()
				if ok {
					ev := col.Settled()
					if ev == nil || !ev.Lost || ev.Step != lost || ev.Step <= last {
						t.Fatalf("Expire: event %+v, want step %d lost (after step %d)", ev, lost, last)
					}
					last = ev.Step
				}
				check("Expire")
				continue
			case 6:
				to := o.expected + a%4 - 1
				o.skipTo(to)
				col.SkipTo(to)
				check("SkipTo")
				continue
			case 7:
				for i := 0; i < o.pkts; i++ {
					pkt := genuine(o.expected+a%3, i)
					o.offer(pkt.Step, i)
					col.Offer(&pkt, into)
				}
				check("whole broadcast")
				continue
			}
			pkt := genuine(s, idx)
			garbage := make([]float64, per+1)
			for i := range garbage {
				garbage[i] = math.NaN()
			}
			switch op >> 3 % 8 {
			case 3: // off the grid, or negative
				pkt.Offset, pkt.Coords = pkt.Offset+1-b%2*(pkt.Offset+1+per), garbage[:1]
			case 4: // the wrong length for its index
				pkt.Coords = garbage[:len(pkt.Coords)+1-b%2*2]
			case 5:
				pkt.Worker, pkt.Coords = b%3, garbage[:len(pkt.Coords)]
			case 6:
				pkt.Loss, pkt.Coords = []float64{1, math.NaN(), math.Copysign(0, -1)}[b%3], garbage[:len(pkt.Coords)]
			case 7:
				pkt.Dim, pkt.Coords = dim+1, garbage[:len(pkt.Coords)]
			default: // genuine: refused when masked, behind, past the horizon or over the window
				o.offer(s, idx)
			}
			col.Offer(&pkt, into)
			check("Offer")
		}
	})
}
