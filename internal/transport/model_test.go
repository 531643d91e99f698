package transport

import (
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

// TestModelCollectorCompleteBroadcasts pins the loss-free fast path: every
// broadcast arrives whole and is delivered in step order with intact
// parameters.
func TestModelCollectorCompleteBroadcasts(t *testing.T) {
	const dim, mtu = 100, 128
	recv, send, codec := modelFixture(t, dim, mtu)
	col := NewModelCollector(recv, ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec,
		BroadcastTimeout: time.Second})
	params := modelParams(dim)
	for step := 0; step < 3; step++ {
		sendModelPackets(t, send, codec, step, mtu, params, nil)
	}
	for step := 0; step < 3; step++ {
		ev, err := col.Next(tensor.NewVector(dim))
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Complete || ev.Step != step {
			t.Fatalf("event %+v, want complete step %d", ev, step)
		}
		for i := range params {
			if ev.Params[i] != params[i] {
				t.Fatalf("step %d coordinate %d corrupted", step, i)
			}
		}
	}
}

// TestModelCollectorReceivesIntoTheCallersVector pins where coordinates land.
// The broadcast Next waits for is assembled in the vector it was given and
// comes back aliasing it; a later broadcast buffered while that one is still
// in flight gets a vector of its own and never writes the caller's; a torn
// broadcast comes back with no Params.
func TestModelCollectorReceivesIntoTheCallersVector(t *testing.T) {
	const dim, mtu = 100, 128
	recv, send, codec := modelFixture(t, dim, mtu)
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
	col := NewModelCollector(recv, ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec,
		Schedule: schedule, BroadcastTimeout: 5 * time.Second})
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
	sendModelPackets(t, send, codec, 0, mtu, p0, first)
	sendModelPackets(t, send, codec, 1, mtu, p1, nil)
	sendModelPackets(t, send, codec, 0, mtu, p0, rest)

	into := sentinel()
	ev, err := col.Next(into)
	if err != nil || !ev.Complete || ev.Step != 0 {
		t.Fatalf("event %+v err %v, want complete step 0", ev, err)
	}
	if &ev.Params[0] != &into[0] {
		t.Fatal("the awaited broadcast was not received into the caller's vector")
	}
	if !sameBits(into, p0) {
		t.Fatal("step 0 landed wrong in the caller's vector")
	}
	into2 := sentinel()
	ev, err = col.Next(into2)
	if err != nil || !ev.Complete || ev.Step != 1 {
		t.Fatalf("event %+v err %v, want complete step 1 from the buffer", ev, err)
	}
	if &ev.Params[0] == &into[0] || &ev.Params[0] == &into2[0] || !sameBits(ev.Params, p1) {
		t.Fatal("the buffered broadcast did not arrive whole in a vector of its own")
	}
	if !sameBits(into, p0) || !sameBits(into2, sentinel()) {
		t.Fatal("the buffered broadcast wrote into a caller's vector")
	}
	sendModelPackets(t, send, codec, 2, mtu, p1, tornMask)
	if ev, err = col.Next(into2); err != nil || !ev.Torn || ev.Step != 2 || ev.Params != nil {
		t.Fatalf("event %+v err %v, want torn step 2 with no Params", ev, err)
	}
}

// TestModelCollectorTornSettlesWithoutDeadline: when the shared schedule
// says a packet was dropped at the server, the collector settles the torn
// broadcast the moment the scheduled survivors are in — it must NOT sit out
// the broadcast timeout waiting for a datagram it knows can never arrive.
func TestModelCollectorTornSettlesWithoutDeadline(t *testing.T) {
	const dim, mtu = 100, 128
	recv, send, codec := modelFixture(t, dim, mtu)
	per := codec.CoordsPerPacket(mtu)
	pktCount := (dim + per - 1) / per
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
	col := NewModelCollector(recv, ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec,
		Schedule: schedule, BroadcastTimeout: 10 * time.Second})
	params := modelParams(dim)
	sendModelPackets(t, send, codec, 0, mtu, params, drops[0])
	sendModelPackets(t, send, codec, 1, mtu, params, nil)

	start := time.Now()
	ev, err := col.Next(tensor.NewVector(dim))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Torn || ev.Step != 0 {
		t.Fatalf("event %+v, want torn step 0", ev)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("torn broadcast took %v to settle: the collector waited on a deadline", elapsed)
	}
	if recv.asm.Pending() != 0 {
		t.Fatalf("torn partial not evicted: %d pending", recv.asm.Pending())
	}
	ev, err = col.Next(tensor.NewVector(dim))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Complete || ev.Step != 1 {
		t.Fatalf("event %+v, want complete step 1", ev)
	}
}

// TestModelCollectorSkipsFullyDroppedSteps: a broadcast whose every packet
// is a scheduled drop produces no event at all — the worker (like the
// server) knows nothing of it can arrive and moves straight to the next
// step with survivors.
func TestModelCollectorSkipsFullyDroppedSteps(t *testing.T) {
	const dim, mtu = 60, 128
	recv, send, codec := modelFixture(t, dim, mtu)
	per := codec.CoordsPerPacket(mtu)
	pktCount := (dim + per - 1) / per
	schedule := func(step int) []bool {
		mask := make([]bool, pktCount)
		if step == 0 {
			for i := range mask {
				mask[i] = true
			}
		}
		return mask
	}
	col := NewModelCollector(recv, ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec,
		Schedule: schedule, BroadcastTimeout: time.Second})
	sendModelPackets(t, send, codec, 1, mtu, modelParams(dim), nil)
	ev, err := col.Next(tensor.NewVector(dim))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Complete || ev.Step != 1 {
		t.Fatalf("event %+v, want complete step 1 (step 0 skipped silently)", ev)
	}
}

// TestModelCollectorSkipTo pins how a caller with state the collector cannot
// see (a churn worker that knows it is not broadcast to while down) moves it
// on: the skipped steps' partials are released, their datagrams become late
// duplicates, and the broadcast at the target — here one that had already
// arrived whole and was stashed — is delivered at once, with no further
// datagram and no timeout. Moving backwards is a no-op.
func TestModelCollectorSkipTo(t *testing.T) {
	const dim, mtu = 100, 128
	recv, send, codec := modelFixture(t, dim, mtu)
	col := NewModelCollector(recv, ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec,
		BroadcastTimeout: 5 * time.Second})
	params := modelParams(dim)
	// A partial for a step about to be skipped and the whole target broadcast,
	// both stashed before step 0 settles.
	sendModelPackets(t, send, codec, 2, mtu, params, []bool{false, true})
	sendModelPackets(t, send, codec, 4, mtu, params, nil)
	sendModelPackets(t, send, codec, 0, mtu, params, nil)
	if ev, err := col.Next(tensor.NewVector(dim)); err != nil || !ev.Complete || ev.Step != 0 || len(col.pending) != 2 {
		t.Fatalf("event %+v err %v pending %d, want complete step 0 with steps 2 and 4 stashed", ev, err, len(col.pending))
	}
	col.SkipTo(4)
	col.SkipTo(1)
	begin := time.Now()
	ev, err := col.Next(tensor.NewVector(dim))
	if err != nil || !ev.Complete || ev.Step != 4 {
		t.Fatalf("event %+v err %v after SkipTo(4), want complete step 4", ev, err)
	}
	if time.Since(begin) > 2*time.Second || len(col.pending) != 0 || recv.asm.Pending() != 0 {
		t.Fatalf("step 4 took %v with %d broadcasts (%d partials) pending: the skipped steps were waited for",
			time.Since(begin), len(col.pending), recv.asm.Pending())
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
	recv, send, codec := modelFixture(t, dim, mtu)
	col := NewModelCollector(recv, ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec,
		BroadcastTimeout: 300 * time.Millisecond})
	params := modelParams(dim)
	sendModelPackets(t, send, codec, 1<<40, mtu, params, nil)
	sendModelPackets(t, send, codec, modelHorizon+1, mtu, params, nil)
	sendModelPackets(t, send, codec, 0, mtu, params, nil)
	if ev, err := col.Next(tensor.NewVector(dim)); err != nil || !ev.Complete || ev.Step != 0 || len(col.pending) != 0 || recv.asm.Pending() != 0 {
		t.Fatalf("event %+v err %v with %d broadcasts pending, want complete step 0 and the forged ones refused", ev, err, len(col.pending))
	}
	// Exactly at the horizon of step 1 a whole broadcast is stashed, and the
	// bounded wait for step 1 ends in the jump to it.
	sendModelPackets(t, send, codec, 1+modelHorizon, mtu, params, nil)
	if ev, err := col.Next(tensor.NewVector(dim)); err != nil || !ev.Lost || ev.Step != 1 {
		t.Fatalf("event %+v err %v, want step 1 lost after the broadcast timeout", ev, err)
	}
	if ev, err := col.Next(tensor.NewVector(dim)); err != nil || !ev.Complete || ev.Step != 1+modelHorizon {
		t.Fatalf("event %+v err %v, want the jump to complete step %d", ev, err, 1+modelHorizon)
	}
}

// TestModelCollectorGenuineLossBoundedWait is the endpoint-wedge regression
// (a genuinely dropped model datagram used to leave the worker blocked in
// RecvModel for the full one-hour idle timeout with the partial pinned
// forever): packets the schedule cannot account for trigger a bounded
// per-broadcast wait, after which the torn partial is evicted and the
// broadcast reported lost.
func TestModelCollectorGenuineLossBoundedWait(t *testing.T) {
	const dim, mtu = 100, 128
	recv, send, codec := modelFixture(t, dim, mtu)
	col := NewModelCollector(recv, ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec,
		BroadcastTimeout: 200 * time.Millisecond})
	// Simulate a kernel drop: only the first packet of step 0 is delivered.
	pkts := codec.Split(&GradientMsg{Worker: ModelWorkerID, Step: 0, Grad: modelParams(dim)}, mtu)
	if len(pkts) < 2 {
		t.Fatal("fixture needs a multi-packet broadcast")
	}
	if err := send.SendPackets([]Packet{pkts[0]}, nil); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ev, err := col.Next(tensor.NewVector(dim))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Lost || ev.Step != 0 {
		t.Fatalf("event %+v, want lost step 0", ev)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("lost broadcast took %v to settle, want roughly the broadcast timeout", elapsed)
	}
	if recv.asm.Pending() != 0 {
		t.Fatalf("lost broadcast's partial still pinned: %d pending", recv.asm.Pending())
	}
	// The next complete broadcast is delivered normally afterwards.
	sendModelPackets(t, send, codec, 1, mtu, modelParams(dim), nil)
	ev, err = col.Next(tensor.NewVector(dim))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Complete || ev.Step != 1 {
		t.Fatalf("event %+v, want complete step 1 after recovery", ev)
	}
}

// TestModelCollectorDeadlineSurvivesTraffic pins that the per-broadcast
// bound is a wall-clock deadline, not a per-read quiet period: in a live
// cluster, unrelated datagrams (later broadcasts, gradient-tagged spoofs)
// keep arriving, and they must not postpone the genuine-loss eviction
// forever.
func TestModelCollectorDeadlineSurvivesTraffic(t *testing.T) {
	const dim, mtu = 100, 128
	recv, send, codec := modelFixture(t, dim, mtu)
	col := NewModelCollector(recv, ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec,
		BroadcastTimeout: 300 * time.Millisecond})
	// Genuine loss: only the first packet of step 0 arrives.
	pkts := codec.Split(&GradientMsg{Worker: ModelWorkerID, Step: 0, Grad: modelParams(dim)}, mtu)
	if err := send.SendPackets([]Packet{pkts[0]}, nil); err != nil {
		t.Fatal(err)
	}
	// A background stream of ignorable gradient-tagged datagrams, spaced
	// well under the broadcast timeout.
	stop := make(chan struct{})
	go func() {
		spam := codec.Split(&GradientMsg{Worker: 3, Step: 0, Grad: modelParams(dim)}, mtu)
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
				send.SendPackets([]Packet{spam[0]}, nil)
			}
		}
	}()
	defer close(stop)
	start := time.Now()
	ev, err := col.Next(tensor.NewVector(dim))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Lost || ev.Step != 0 {
		t.Fatalf("event %+v, want lost step 0", ev)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("continuous ignorable traffic postponed the eviction for %v", elapsed)
	}
}

// TestModelCollectorCatchUpJump pins the fall-behind recovery rate: when a
// buffered later broadcast has already fully resolved, one broadcast
// timeout must carry the collector over the whole unrecoverable range — a
// suspected worker that could only advance one step per timeout while the
// server keeps stepping would fall behind forever.
func TestModelCollectorCatchUpJump(t *testing.T) {
	const dim, mtu = 100, 128
	recv, send, codec := modelFixture(t, dim, mtu)
	col := NewModelCollector(recv, ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec,
		BroadcastTimeout: 300 * time.Millisecond})
	params := modelParams(dim)
	// Step 0 is genuinely torn (one packet only); steps 1-4 are genuinely
	// lost outright; steps 5 and 6 arrive whole and buffer in the window.
	pkts := codec.Split(&GradientMsg{Worker: ModelWorkerID, Step: 0, Grad: params}, mtu)
	if err := send.SendPackets([]Packet{pkts[0]}, nil); err != nil {
		t.Fatal(err)
	}
	sendModelPackets(t, send, codec, 5, mtu, params, nil)
	sendModelPackets(t, send, codec, 6, mtu, params, nil)

	start := time.Now()
	ev, err := col.Next(tensor.NewVector(dim))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Lost {
		t.Fatalf("first event %+v, want lost", ev)
	}
	ev, err = col.Next(tensor.NewVector(dim))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Complete || ev.Step != 5 {
		t.Fatalf("event after catch-up %+v, want complete step 5", ev)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("catch-up over 5 lost broadcasts took %v — one timeout per step instead of a jump", elapsed)
	}
	ev, err = col.Next(tensor.NewVector(dim))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Complete || ev.Step != 6 {
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
	recv, send, codec := modelFixture(t, dim, mtu)
	per := codec.CoordsPerPacket(mtu)
	pktCount := codec.PacketsPerTransfer(dim, mtu)
	col := NewModelCollector(recv, ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec,
		BroadcastTimeout: 5 * time.Second})
	params := modelParams(dim)
	real := codec.Split(&GradientMsg{Worker: ModelWorkerID, Step: 0, Grad: params}, mtu)
	// The genuine first packet pins the broadcast's metadata...
	if err := send.SendPackets([]Packet{real[0]}, nil); err != nil {
		t.Fatal(err)
	}
	// ...then a conflicting-Loss spoof for every remaining survivor index
	// (each rejected by the reassembler — pre-fix they still counted
	// toward torn-resolution and destroyed the in-flight broadcast) plus a
	// wrong-Dim spoof.
	for idx := 1; idx < pktCount; idx++ {
		n := per
		if idx == pktCount-1 {
			n = dim - idx*per
		}
		spoof := &Packet{Worker: ModelWorkerID, Step: 0, Loss: 99.5, Dim: dim,
			Offset: idx * per, Coords: make([]float64, n)}
		if err := send.SendPackets([]Packet{*spoof}, nil); err != nil {
			t.Fatal(err)
		}
	}
	wrongDim := &Packet{Worker: ModelWorkerID, Step: 0, Dim: dim + 1, Offset: 0,
		Coords: make([]float64, 1)}
	if err := send.SendPackets([]Packet{*wrongDim}, nil); err != nil {
		t.Fatal(err)
	}
	// The genuine remainder lands last and must still complete the model.
	for i := 1; i < len(real); i++ {
		if err := send.SendPackets([]Packet{real[i]}, nil); err != nil {
			t.Fatal(err)
		}
	}
	ev, err := col.Next(tensor.NewVector(dim))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Complete || ev.Step != 0 {
		t.Fatalf("event %+v, want complete step 0 (spoofed metadata faked a torn broadcast)", ev)
	}
	for i := range params {
		if ev.Params[i] != params[i] {
			t.Fatalf("coordinate %d corrupted by spoofed packets", i)
		}
	}
}

// TestModelBurstShortReadBuffer is the kernel-overflow regression at
// paper-ish scale: an unpaced burst larger than the receive buffer is
// silently truncated by the kernel (the "loss-free" channel genuinely
// drops, and pre-fix the worker wedged on the torn broadcast), while a
// paced sender with a concurrently draining receiver delivers the same
// burst intact through the same short buffer.
func TestModelBurstShortReadBuffer(t *testing.T) {
	const dim = 20000 // 160 KB of float64 coordinates: >> a 4 KB socket buffer
	const mtu = DefaultMTU

	// Unpaced: the burst overflows the buffer, the broadcast is torn, and
	// the collector recovers within the bounded wait instead of pinning
	// the partial for the idle timeout.
	recv, send, codec := modelFixture(t, dim, mtu)
	if err := recv.conn.SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	sendModelPackets(t, send, codec, 0, mtu, modelParams(dim), nil)
	col := NewModelCollector(recv, ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec,
		BroadcastTimeout: 300 * time.Millisecond})
	ev, err := col.Next(tensor.NewVector(dim))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Lost {
		t.Fatalf("unpaced 160KB burst into a 4KB buffer delivered %+v, want genuine loss", ev)
	}
	if recv.asm.Pending() != 0 {
		t.Fatalf("torn partial still pinned after eviction: %d pending", recv.asm.Pending())
	}

	// Paced: same short buffer, sender rate-limited, receiver draining
	// concurrently — the broadcast must complete.
	recv2, send2, _ := modelFixture(t, dim, mtu)
	if err := recv2.conn.SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	send2.SetPacing(2048, time.Millisecond)
	params := modelParams(dim)
	done := make(chan error, 1)
	go func() {
		pkts := codec.Split(&GradientMsg{Worker: ModelWorkerID, Step: 0, Grad: params}, mtu)
		for i := range pkts {
			if err := send2.SendPackets([]Packet{pkts[i]}, nil); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	col2 := NewModelCollector(recv2, ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec,
		BroadcastTimeout: 10 * time.Second})
	ev, err = col2.Next(tensor.NewVector(dim))
	if err != nil {
		t.Fatal(err)
	}
	if sendErr := <-done; sendErr != nil {
		t.Fatal(sendErr)
	}
	if !ev.Complete || ev.Step != 0 {
		t.Fatalf("paced burst through a short buffer settled as %+v, want complete step 0", ev)
	}
	for i := range params {
		if ev.Params[i] != params[i] {
			t.Fatalf("paced delivery corrupted coordinate %d", i)
		}
	}
}

// TestModelCollectorHostileFutureStepsBounded is the worker-side
// reassembler-growth regression: spoofed datagrams claiming distinct future
// steps used to each pin a maxDim-sized partial indefinitely (the model
// endpoint never evicted anything). The collector caps buffered future
// broadcasts, filters gradient-tagged spoofs before they reach the
// reassembler, and the legitimate broadcast still assembles through the
// spam.
func TestModelCollectorHostileFutureStepsBounded(t *testing.T) {
	const dim, mtu = 100, 128
	recv, send, codec := modelFixture(t, dim, mtu)
	hostile, err := DialUDP(recv.Addr(), codec, mtu, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer hostile.Close()

	// 40 distinct future steps, one packet each, plus gradient-tagged spam.
	for step := 5; step < 45; step++ {
		pkts := codec.Split(&GradientMsg{Worker: ModelWorkerID, Step: step, Grad: modelParams(dim)}, mtu)
		if err := hostile.SendPackets([]Packet{pkts[0]}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 10; step++ {
		pkts := codec.Split(&GradientMsg{Worker: 3, Step: step, Grad: modelParams(dim)}, mtu)
		if err := hostile.SendPackets([]Packet{pkts[0]}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The legitimate broadcast lands after the spam.
	params := modelParams(dim)
	sendModelPackets(t, send, codec, 0, mtu, params, nil)

	col := NewModelCollector(recv, ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec,
		BroadcastTimeout: 2 * time.Second})
	ev, err := col.Next(tensor.NewVector(dim))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Complete || ev.Step != 0 {
		t.Fatalf("event %+v, want the legitimate complete step 0 despite hostile spam", ev)
	}
	if len(col.pending) > DefaultModelWindow {
		t.Fatalf("collector tracks %d pending broadcasts, cap is %d", len(col.pending), DefaultModelWindow)
	}
	if recv.asm.Pending() > DefaultModelWindow+1 {
		t.Fatalf("reassembler pins %d partials after spam, want <= window+current (%d)",
			recv.asm.Pending(), DefaultModelWindow+1)
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
