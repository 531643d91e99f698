package transport

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"aggregathor/internal/tensor"
)

// TestFanOutShortReadBuffers is TestModelBurstShortReadBuffer for the
// fan-out: several destinations whose socket buffers are forced down to a
// dozen datagrams, one transfer ten times that size. Every destination assembles it
// whole only if the fan-out bounds what each socket is sent between sleeps —
// with pacing off, or a burst counted per broadcast instead of per
// destination's bytes, the kernel drops and the collectors report a loss.
func TestFanOutShortReadBuffers(t *testing.T) {
	const dim, mtu, dests = 20000, DefaultMTU, 4
	codec := Codec{}
	params := modelParams(dim)
	fan := NewUDPFanOut(codec, mtu, 2048, time.Millisecond)
	defer fan.Close()
	events := make(chan *ModelEvent, dests)
	for i := 0; i < dests; i++ {
		recv, err := ListenUDP("127.0.0.1:0", codec, DropGradient, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer recv.Close()
		if err := recv.conn.SetReadBuffer(16 << 10); err != nil {
			t.Fatal(err)
		}
		if err := fan.Dial(recv.Addr()); err != nil {
			t.Fatal(err)
		}
		col := NewModelCollector(ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec})
		go func() {
			ev, err := recvModel(recv, col, tensor.NewVector(dim), 10*time.Second)
			if err != nil {
				ev = nil
			}
			events <- ev
		}()
	}
	pkts := codec.Split(&GradientMsg{Worker: ModelWorkerID, Step: 0, Grad: params}, mtu)
	if err := fan.Broadcast(pkts, func(int) ([]bool, bool) { return nil, true }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dests; i++ {
		ev := <-events
		if ev == nil || !ev.Complete || ev.Step != 0 {
			t.Fatalf("a destination settled the paced broadcast as %+v, want complete step 0", ev)
		}
		for j := range params {
			if ev.Params[j] != params[j] {
				t.Fatalf("paced fan-out corrupted coordinate %d", j)
			}
		}
	}
}

// TestFanOutOnePacingClock pins what the fan-out is for. A 200 KB model to
// 19 destinations at the cluster's 128 KB burst sleeps as often as ONE paced
// sender would for one destination — the remainder below the burst carrying
// into the next broadcast — not 19 times that; a packet index a
// destination's mask withholds is never written to it, and a destination
// planned send=false is written nothing.
func TestFanOutOnePacingClock(t *testing.T) {
	const dim, mtu, dests, burst = 25000, DefaultMTU, 19, 128 << 10
	const masked, silent = 3, 7
	codec := Codec{}
	per := codec.CoordsPerPacket(mtu)
	fan := NewUDPFanOut(codec, mtu, burst, time.Millisecond)
	defer fan.Close()
	sleeps := 0
	fan.chunk.sleep = func(d time.Duration) { sleeps++; time.Sleep(d) }

	// Each destination counts, per broadcast step, the packet indexes it was
	// sent, until its socket goes quiet.
	const steps = 3
	var got [dests][steps][]int
	var wg sync.WaitGroup
	for i := 0; i < dests; i++ {
		recv, err := ListenUDP("127.0.0.1:0", codec, DropGradient, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer recv.Close()
		if err := fan.Dial(recv.Addr()); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				p, err := recv.RecvPacket(500 * time.Millisecond)
				if err != nil {
					if !errors.Is(err, ErrTimeout) {
						t.Error(err)
					}
					return
				}
				got[i][p.Step] = append(got[i][p.Step], p.Offset/per)
			}
		}(i)
	}

	pkts := codec.Split(&GradientMsg{Worker: ModelWorkerID, Grad: modelParams(dim)}, mtu)
	mask := make([]bool, len(pkts))
	for _, idx := range []int{0, 5, fan.chunk.batch - 1, fan.chunk.batch, len(pkts) - 1} { // either side of a chunk boundary
		mask[idx] = true
	}
	plan := func(dest int) ([]bool, bool) {
		switch dest {
		case masked:
			return mask, true
		case silent:
			return nil, false
		}
		return nil, true
	}
	// What one paced sender does with the same packet stream: sleep when the
	// bytes since the last sleep reach the burst, carry the rest.
	acc, want := 0, 0
	for step := 0; step < steps; step++ {
		for i := range pkts {
			pkts[i].Step = step
			if acc += codec.PacketWireLen(&pkts[i]); acc >= burst {
				acc, want = 0, want+1
			}
		}
		before := sleeps
		if err := fan.Broadcast(pkts, plan); err != nil {
			t.Fatal(err)
		}
		if n := sleeps - before; n > 2 {
			t.Fatalf("broadcast %d slept %d times, want at most 2 (one clock for all %d destinations)", step, n, dests)
		}
		if sleeps != want || fan.chunk.burstAcc != acc {
			t.Fatalf("after broadcast %d: %d sleeps and %d bytes carried, one paced sender makes it %d and %d",
				step, sleeps, fan.chunk.burstAcc, want, acc)
		}
	}
	if want <= steps {
		t.Fatalf("%d sleeps over %d broadcasts: the remainder never carried, the test checks nothing", want, steps)
	}

	wg.Wait()
	for i := range got {
		for step := range got[i] {
			seen := make([]int, len(pkts))
			for _, idx := range got[i][step] {
				seen[idx]++
			}
			for idx, n := range seen {
				wantN := 1
				if i == silent || (i == masked && mask[idx]) {
					wantN = 0
				}
				if n != wantN {
					t.Fatalf("destination %d, broadcast %d: packet %d written %d times, want %d", i, step, idx, n, wantN)
				}
			}
		}
	}
}

// TestFanOutEncodesEachPacketOnce: 19 destinations, each with a mask of its
// own (one of them the tail), each receive exactly the packets their mask
// leaves — while the broadcast encodes every packet once, not once per
// destination: the bytes that pass through the fan-out's arena, chunk by
// chunk, are the transfer's wire bytes and no more.
func TestFanOutEncodesEachPacketOnce(t *testing.T) {
	const dim, mtu, dests = 25450, DefaultMTU, 19
	codec := Codec{}
	per := codec.CoordsPerPacket(mtu)
	pkts := codec.Split(&GradientMsg{Worker: ModelWorkerID, Grad: modelParams(dim)}, mtu)
	wire := 0
	for i := range pkts {
		wire += codec.PacketWireLen(&pkts[i])
	}
	// A burst of one full chunk: every full chunk ends on it and calls
	// sleep, where the chunk's arena is still to be seen; the short last
	// chunk is what is left in burstAcc.
	fan := NewUDPFanOut(codec, mtu, framesPerMessage(mtu)*codec.PacketWireLen(&pkts[0]), 0)
	defer fan.Close()
	encoded := 0
	fan.chunk.sleep = func(time.Duration) { encoded += len(fan.chunk.arena) }

	masks := make([][]bool, dests)
	var got [dests][]int
	var wg sync.WaitGroup
	for i := 0; i < dests; i++ {
		// Destination i is withheld every packet ≡ i mod 19, so one of them
		// the tail; destination 0's mask is cut short below.
		masks[i] = make([]bool, len(pkts))
		for idx := range masks[i] {
			masks[i][idx] = idx%dests == i
		}
		recv, err := ListenUDP("127.0.0.1:0", codec, DropGradient, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer recv.Close()
		if err := fan.Dial(recv.Addr()); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				p, err := recv.RecvPacket(500 * time.Millisecond)
				if err != nil {
					if !errors.Is(err, ErrTimeout) {
						t.Error(err)
					}
					return
				}
				got[i] = append(got[i], p.Offset/per)
			}
		}(i)
	}
	masks[0] = masks[0][:len(pkts)/2]
	if !masks[(len(pkts)-1)%dests][len(pkts)-1] {
		t.Fatal("no destination is withheld the tail packet: the test does not cover it")
	}
	if err := fan.Broadcast(pkts, func(dest int) ([]bool, bool) { return masks[dest], true }); err != nil {
		t.Fatal(err)
	}
	if encoded += fan.chunk.burstAcc; encoded != wire {
		t.Fatalf("%d bytes encoded for a %d-byte transfer to %d destinations: a packet is not encoded exactly once", encoded, wire, dests)
	}
	wg.Wait()
	sent := 0
	for i := range got {
		var want []int
		for idx := range pkts {
			if idx >= len(masks[i]) || !masks[i][idx] {
				want = append(want, idx)
			}
		}
		if !slices.Equal(got[i], want) {
			t.Fatalf("destination %d received packets %v, its mask leaves %v", i, got[i], want)
		}
		sent += len(want)
	}
	if st := fan.Stats(); st.Datagrams != sent {
		t.Fatalf("fan-out counted %+v, wrote %d datagrams", st, sent)
	}
}

// TestRecvPacketReuseKeepsNothing: every datagram decodes into the
// receiver's one packet, so a short packet after a long one, or a malformed
// datagram in between, must leave no coordinate or header field of its
// predecessor behind.
func TestRecvPacketReuseKeepsNothing(t *testing.T) {
	recv, send, _ := modelFixture(t, 64, DefaultMTU)
	long := &Packet{Worker: 4, Step: 9, Loss: 2.5, Dim: 64, Offset: 8, Coords: modelParams(40)}
	short := &Packet{Worker: 1, Step: 2, Loss: math.Inf(1), Dim: 3, Offset: 1, Coords: modelParams(2)}
	if err := send.SendPackets([]Packet{*long}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := send.batcher.conn.Write([]byte("not a packet")); err != nil {
		t.Fatal(err)
	}
	if err := send.SendPackets([]Packet{*short}, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []*Packet{long, short} {
		got, err := recv.RecvPacket(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !samePacket(got, want) {
			t.Fatalf("received %+v, want %+v", got, want)
		}
	}
}

// samePacket compares two packets field for field, floats by their bits.
func samePacket(a, b *Packet) bool {
	if a.Worker != b.Worker || a.Step != b.Step || a.Dim != b.Dim || a.Offset != b.Offset ||
		math.Float64bits(a.Loss) != math.Float64bits(b.Loss) || len(a.Coords) != len(b.Coords) {
		return false
	}
	for i := range a.Coords {
		if math.Float64bits(a.Coords[i]) != math.Float64bits(b.Coords[i]) {
			return false
		}
	}
	return true
}
