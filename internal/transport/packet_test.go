package transport

import (
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/tensor"
)

func TestReassemblerCompletesInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := Codec{}
	m := &GradientMsg{Worker: 1, Step: 2, Grad: randVec(rng, 300)}
	asm := NewReassembler(DropGradient, nil)
	packets := c.Split(m, 256)
	var got *GradientMsg
	for i := range packets {
		msg, done := asm.Offer(&packets[i])
		if done {
			if i != len(packets)-1 {
				t.Fatalf("completed early at packet %d of %d", i, len(packets))
			}
			got = msg
		}
	}
	if got == nil {
		t.Fatal("gradient never completed")
	}
	for i := range m.Grad {
		if got.Grad[i] != m.Grad[i] {
			t.Fatalf("coord %d mismatch", i)
		}
	}
	if len(asm.pending) != 0 {
		t.Fatal("state leaked after completion")
	}
}

func TestReassemblerOutOfOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := Codec{}
	m := &GradientMsg{Worker: 4, Step: 9, Grad: randVec(rng, 500)}
	packets := c.Split(m, 128)
	rng.Shuffle(len(packets), func(i, j int) { packets[i], packets[j] = packets[j], packets[i] })
	asm := NewReassembler(FillNaN, nil)
	var got *GradientMsg
	for i := range packets {
		if msg, done := asm.Offer(&packets[i]); done {
			got = msg
		}
	}
	if got == nil {
		t.Fatal("out-of-order delivery failed to complete")
	}
	for i := range m.Grad {
		if got.Grad[i] != m.Grad[i] {
			t.Fatalf("coord %d mismatch under reordering", i)
		}
	}
}

func TestReassemblerDuplicatePacketsHarmless(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := Codec{}
	m := &GradientMsg{Worker: 1, Step: 1, Grad: randVec(rng, 64)}
	packets := c.Split(m, 128)
	asm := NewReassembler(DropGradient, nil)
	// Deliver the first packet twice before the rest.
	if _, done := asm.Offer(&packets[0]); done {
		t.Fatal("premature completion")
	}
	if _, done := asm.Offer(&packets[0]); done && len(packets) > 1 {
		t.Fatal("duplicate completed the gradient")
	}
	var got *GradientMsg
	for i := 1; i < len(packets); i++ {
		if msg, done := asm.Offer(&packets[i]); done {
			got = msg
		}
	}
	if len(packets) > 1 && got == nil {
		t.Fatal("gradient never completed after duplicates")
	}
}

// TestReassemblerConflictingDimNoCrash is the regression test for the
// remote-crash bug: a Byzantine worker sending two individually
// self-consistent packets for the same (worker, step) key but with
// conflicting Dim values used to index the first packet's arrival mask out
// of range — one hostile datagram panicked the server. Conflicting packets
// now evict and rebuild the partial (see the spoof-censorship tests for
// why) — the property under test here is that neither ordering can crash or
// corrupt, and that the honest stream still completes once re-offered.
func TestReassemblerConflictingDimNoCrash(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	c := Codec{}
	m := &GradientMsg{Worker: 3, Step: 7, Grad: randVec(rng, 100)}
	packets := c.Split(m, 256)
	if len(packets) < 2 {
		t.Fatalf("need >= 2 packets, got %d", len(packets))
	}
	asm := NewReassembler(FillNaN, nil)
	if _, done := asm.Offer(&packets[0]); done {
		t.Fatal("premature completion")
	}
	// Self-consistent hostile packet: same key, larger Dim, range far
	// outside the honest partial's mask. Before the conflict check this
	// indexed out of range; now it evicts and rebuilds — either way it must
	// not complete a gradient or crash.
	hostile := &Packet{Worker: 3, Step: 7, Dim: 1000, Offset: 900, Coords: randVec(rng, 50)}
	if _, done := asm.Offer(hostile); done {
		t.Fatal("hostile packet completed a gradient")
	}
	// Opposite ordering on a fresh key: large partial pending, then a
	// smaller conflicting Dim arrives. The newcomer evicts the pending
	// partial and stands alone — it happens to be complete, which is fine:
	// it delivers its own (self-consistent) gradient, not a hybrid of the
	// two, and crucially nothing indexes out of range.
	big := &Packet{Worker: 5, Step: 7, Dim: 1000, Offset: 0, Coords: randVec(rng, 50)}
	smaller := &Packet{Worker: 5, Step: 7, Dim: 10, Offset: 0, Coords: randVec(rng, 10)}
	if _, done := asm.Offer(big); done {
		t.Fatal("premature completion")
	}
	if msg, done := asm.Offer(smaller); done {
		if len(msg.Grad) != 10 {
			t.Fatalf("evict-rebuild delivered a hybrid gradient of dim %d", len(msg.Grad))
		}
		for i := range msg.Grad {
			if msg.Grad[i] != smaller.Coords[i] {
				t.Fatalf("coord %d of rebuilt gradient corrupted", i)
			}
		}
	} else {
		t.Fatal("complete rebuilt gradient was not delivered")
	}
	if asm.evictions == 0 {
		t.Fatal("conflicting packets did not count as evictions")
	}
	// The honest stream completes once every honest packet is offered after
	// the hostile ones (the eviction cost packets[0]; re-offer it).
	var got *GradientMsg
	for i := 1; i < len(packets); i++ {
		if msg, done := asm.Offer(&packets[i]); done {
			got = msg
		}
	}
	if got != nil {
		t.Fatal("completed while packets[0]'s range was still missing post-eviction")
	}
	if msg, done := asm.Offer(&packets[0]); done {
		got = msg
	}
	if got == nil {
		t.Fatal("honest gradient never completed after hostile packets")
	}
	for i := range m.Grad {
		if got.Grad[i] != m.Grad[i] {
			t.Fatalf("coord %d corrupted by hostile packets", i)
		}
	}
}

// TestReassemblerSpoofCannotCensorHonestWorker is the failing-first
// regression test for the spoof-censorship bug: a Byzantine peer spoofing
// ONE datagram under an honest worker's (worker, step) key — with garbage
// Loss metadata, ahead of the honest burst — used to pin the partial's
// metadata, so every genuine packet was rejected as a "metadata conflict"
// and the honest gradient was recouped as lost. One datagram censored an
// honest worker for the round, violating the f-Byzantine budget. With
// evict-and-rebuild the first honest packet evicts the spoof and the honest
// gradient completes untouched.
func TestReassemblerSpoofCannotCensorHonestWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := Codec{}
	m := &GradientMsg{Worker: 2, Step: 4, Loss: 0.5, Grad: randVec(rng, 100)}
	packets := c.Split(m, 256)
	asm := NewReassembler(DropGradient, nil)
	// The spoof races ahead of the honest burst: same key and Dim, garbage
	// Loss, attacker-chosen coords.
	spoof := &Packet{Worker: 2, Step: 4, Loss: 999.25, Dim: 100, Offset: 0,
		Coords: randVec(rng, 10)}
	if _, done := asm.Offer(spoof); done {
		t.Fatal("spoof completed a gradient")
	}
	var got *GradientMsg
	for i := range packets {
		if msg, done := asm.Offer(&packets[i]); done {
			got = msg
		}
	}
	if got == nil {
		t.Fatal("spoofed datagram censored the honest gradient")
	}
	if got.Loss != m.Loss {
		t.Fatalf("delivered loss %v, want the honest %v", got.Loss, m.Loss)
	}
	for i := range m.Grad {
		if got.Grad[i] != m.Grad[i] {
			t.Fatalf("coord %d corrupted by the spoof", i)
		}
	}
	if asm.evictions != 1 {
		t.Fatalf("evictions = %d, want 1", asm.evictions)
	}
}

// TestReassemblerBoundsClaimedDim: the header's Dim field is
// attacker-controlled, and the reassembler sizes its partial state by it — a
// spoofed Dim near 2³² used to make the first Offer allocate tens of
// gigabytes and abort the process. Dimensions beyond the bound are rejected
// as malformed without allocating, and a gradient at exactly the bound still
// assembles.
func TestReassemblerBoundsClaimedDim(t *testing.T) {
	asm := NewReassembler(DropGradient, nil)
	huge := &Packet{Worker: 1, Step: 1, Dim: 1<<31 - 1, Offset: 0, Coords: tensor.Vector{1}}
	if _, done := asm.Offer(huge); done {
		t.Fatal("huge-dim packet completed a gradient")
	}
	if len(asm.pending) != 0 {
		t.Fatal("huge-dim packet allocated partial state")
	}

	asm.maxDim = 100
	over := &Packet{Worker: 1, Step: 1, Dim: 101, Offset: 0, Coords: tensor.Vector{1}}
	if _, done := asm.Offer(over); done || len(asm.pending) != 0 {
		t.Fatal("packet over the tightened bound was admitted")
	}
	rng := rand.New(rand.NewSource(25))
	c := Codec{}
	m := &GradientMsg{Worker: 2, Step: 2, Grad: randVec(rng, 100)}
	var got *GradientMsg
	for _, p := range c.Split(m, 256) {
		if msg, done := asm.Offer(&p); done {
			got = msg
		}
	}
	if got == nil {
		t.Fatal("gradient at exactly the bound failed to assemble")
	}
}

// TestReassemblerRejectsMalformedRange covers hand-built packets that never
// went through DecodePacket's range validation: they must be dropped, not
// indexed.
func TestReassemblerRejectsMalformedRange(t *testing.T) {
	asm := NewReassembler(DropGradient, nil)
	for _, p := range []*Packet{
		{Worker: 1, Step: 1, Dim: 10, Offset: 8, Coords: tensor.Vector{1, 2, 3}},
		{Worker: 1, Step: 1, Dim: 10, Offset: -1, Coords: tensor.Vector{1}},
		{Worker: 1, Step: 1, Dim: -5, Offset: 0, Coords: tensor.Vector{}},
	} {
		if _, done := asm.Offer(p); done {
			t.Fatalf("malformed packet %+v completed a gradient", p)
		}
	}
	if len(asm.pending) != 0 {
		t.Fatal("malformed packets left partial state behind")
	}
}

// TestReassemblerCarriesLoss pins the wire bugfix: the loss metadata repeated
// in every packet header must survive reassembly on the complete path, the
// policy flush path and the explicit FlushFill path (it used to be silently
// rebuilt as 0, diverging UDP loss trajectories from TCP and in-process).
func TestReassemblerCarriesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := Codec{}
	m := &GradientMsg{Worker: 2, Step: 5, Loss: 0.8125, Grad: randVec(rng, 100)}
	packets := c.Split(m, 128)
	if len(packets) < 2 {
		t.Fatalf("need >= 2 packets, got %d", len(packets))
	}

	asm := NewReassembler(FillNaN, nil)
	var got *GradientMsg
	for i := range packets {
		if msg, done := asm.Offer(&packets[i]); done {
			got = msg
		}
	}
	if got == nil || got.Loss != 0.8125 {
		t.Fatalf("complete path lost the loss metadata: %+v", got)
	}

	asm.Offer(&packets[0])
	if msg, ok := asm.Flush(2, 5); !ok || msg.Loss != 0.8125 {
		t.Fatalf("policy flush lost the loss metadata: %+v", msg)
	}

	asm.Offer(&packets[0])
	if msg, ok := asm.FlushFill(2, 5, func(int) float64 { return 0 }); !ok || msg.Loss != 0.8125 {
		t.Fatalf("FlushFill lost the loss metadata: %+v", msg)
	}
}

// TestReassemblerRejectsConflictingLoss: the repeated metadata rule covers
// the loss field too — packets disagreeing with the pending partial's loss
// bits are malformed. NaN losses compare by bit pattern, so an honest NaN
// loss still assembles.
func TestReassemblerRejectsConflictingLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c := Codec{}
	m := &GradientMsg{Worker: 1, Step: 1, Loss: 2.5, Grad: randVec(rng, 100)}
	packets := c.Split(m, 128)
	asm := NewReassembler(FillNaN, nil)
	asm.Offer(&packets[0])
	forged := packets[1]
	forged.Loss = -99
	if _, done := asm.Offer(&forged); done {
		t.Fatal("conflicting-loss packet completed a gradient")
	}
	if missing, ok := asm.missing(1, 1); !ok || missing != 100-len(packets[0].Coords) {
		t.Fatalf("forged packet mutated the partial: missing=%d ok=%v", missing, ok)
	}

	nan := &GradientMsg{Worker: 9, Step: 9, Loss: math.NaN(), Grad: randVec(rng, 100)}
	npk := c.Split(nan, 128)
	var got *GradientMsg
	for i := range npk {
		if msg, done := asm.Offer(&npk[i]); done {
			got = msg
		}
	}
	if got == nil || !math.IsNaN(got.Loss) {
		t.Fatalf("NaN-loss gradient failed to assemble: %+v", got)
	}
}

// TestFlushFillDeterministicOrder pins that FlushFill visits missing
// coordinates in ascending order — the property cluster recoup relies on to
// make seed-derived fill values reproducible.
func TestFlushFillDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := Codec{}
	m := &GradientMsg{Worker: 4, Step: 2, Grad: randVec(rng, 120)}
	packets := c.Split(m, 128)
	if len(packets) < 3 {
		t.Fatalf("need >= 3 packets, got %d", len(packets))
	}
	asm := NewReassembler(DropGradient, nil)
	asm.Offer(&packets[1]) // only the middle packet arrives
	var visited []int
	msg, ok := asm.FlushFill(4, 2, func(coord int) float64 {
		visited = append(visited, coord)
		return float64(coord)
	})
	if !ok {
		t.Fatal("FlushFill must deliver a pending partial")
	}
	for i := 1; i < len(visited); i++ {
		if visited[i] <= visited[i-1] {
			t.Fatalf("fill order not ascending: %v", visited)
		}
	}
	for _, coord := range visited {
		if msg.Grad[coord] != float64(coord) {
			t.Fatalf("fill value misplaced at %d", coord)
		}
	}
	off := packets[1].Offset
	for i, x := range packets[1].Coords {
		if msg.Grad[off+i] != x {
			t.Fatalf("received coordinate %d altered", off+i)
		}
	}
}

// TestDiscardAndMissing covers the per-slot Partial the round engine
// settles through: Offer's missing count, reassembly in the row it is
// handed, Discard, and a restart after it reusing the bitmap.
func TestDiscardAndMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c := Codec{}
	m := &GradientMsg{Worker: 6, Step: 3, Grad: randVec(rng, 100)}
	packets := c.Split(m, 128)
	var part Partial
	if !part.Empty() {
		t.Fatal("the zero Partial is not empty")
	}
	row := tensor.NewVector(100)
	if missing, evicted, ok := part.Offer(&packets[0], row); !ok || evicted || missing != 100-len(packets[0].Coords) {
		t.Fatalf("missing=%d evicted=%v ok=%v", missing, evicted, ok)
	}
	if &part.grad[0] != &row[0] {
		t.Fatal("the partial did not start in the row it was handed")
	}
	bitmap := &part.received[0]
	part.Discard()
	if !part.Empty() {
		t.Fatal("Discard must empty the partial")
	}
	if _, _, ok := part.Offer(&Packet{Dim: 100, Offset: 95, Coords: randVec(rng, 10)}, row); ok {
		t.Fatal("a range past Dim was accepted")
	}
	if !part.Empty() {
		t.Fatal("a refused packet started a partial")
	}
	for i := range packets {
		missing, _, _ := part.Offer(&packets[len(packets)-1-i], row)
		if want := 100 - countCoords(packets[len(packets)-1-i:]); missing != want {
			t.Fatalf("after %d packets missing=%d, want %d", i+1, missing, want)
		}
	}
	if &part.received[0] != bitmap {
		t.Fatal("the restarted partial did not reuse its bitmap")
	}
	grad, _ := part.Take(nil)
	if !part.Empty() || &grad[0] != &row[0] {
		t.Fatal("Take must empty the partial and return the row")
	}
	for i := range m.Grad {
		if grad[i] != m.Grad[i] {
			t.Fatalf("coordinate %d is %v, want %v", i, grad[i], m.Grad[i])
		}
	}
}

func countCoords(packets []Packet) (n int) {
	for i := range packets {
		n += len(packets[i].Coords)
	}
	return n
}

func TestFlushFillNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := Codec{}
	m := &GradientMsg{Worker: 2, Step: 3, Grad: randVec(rng, 100)}
	packets := c.Split(m, 128)
	if len(packets) < 2 {
		t.Fatalf("need >= 2 packets, got %d", len(packets))
	}
	asm := NewReassembler(FillNaN, nil)
	asm.Offer(&packets[0]) // lose the rest
	msg, ok := asm.Flush(2, 3)
	if !ok {
		t.Fatal("FillNaN flush must deliver")
	}
	nans := 0
	for i, x := range msg.Grad {
		if math.IsNaN(x) {
			nans++
		} else if x != m.Grad[i] {
			t.Fatalf("received coordinate %d altered", i)
		}
	}
	wantLost := 100 - len(packets[0].Coords)
	if nans != wantLost {
		t.Fatalf("%d NaN coords, want %d", nans, wantLost)
	}
}

func TestFlushFillRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := Codec{}
	m := &GradientMsg{Worker: 1, Step: 1, Grad: randVec(rng, 100)}
	packets := c.Split(m, 128)
	asm := NewReassembler(FillRandom, rand.New(rand.NewSource(6)))
	asm.Offer(&packets[0])
	msg, ok := asm.Flush(1, 1)
	if !ok {
		t.Fatal("FillRandom flush must deliver")
	}
	if !msg.Grad.IsFinite() {
		t.Fatal("FillRandom must produce finite coordinates")
	}
}

func TestFlushDropGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := Codec{}
	m := &GradientMsg{Worker: 1, Step: 1, Grad: randVec(rng, 100)}
	packets := c.Split(m, 128)
	asm := NewReassembler(DropGradient, nil)
	asm.Offer(&packets[0])
	if _, ok := asm.Flush(1, 1); ok {
		t.Fatal("DropGradient flush must not deliver")
	}
	if len(asm.pending) != 0 {
		t.Fatal("flush must release state even when dropping")
	}
}

func TestFlushNothingPending(t *testing.T) {
	asm := NewReassembler(FillNaN, nil)
	if _, ok := asm.Flush(1, 1); ok {
		t.Fatal("flush with nothing pending must report !ok")
	}
}

func TestFillRandomWithoutRngPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReassembler(FillRandom, nil)
}

func TestRecoupPolicyString(t *testing.T) {
	if DropGradient.String() != "drop-gradient" ||
		FillNaN.String() != "fill-nan" ||
		FillRandom.String() != "fill-random" {
		t.Fatal("policy names wrong")
	}
	if RecoupPolicy(9).String() != "RecoupPolicy(9)" {
		t.Fatal("unknown policy formatting")
	}
}

// Property: split → shuffle → reassemble is the identity for any MTU and
// dimension (no loss).
func TestQuickSplitReassembleIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for iter := 0; iter < 60; iter++ {
		d := rng.Intn(3000) + 1
		mtu := rng.Intn(1400) + 64
		c := Codec{Float32: iter%2 == 0}
		grad := make(tensor.Vector, d)
		for i := range grad {
			grad[i] = float64(float32(rng.NormFloat64())) // float32-safe values
		}
		m := &GradientMsg{Worker: iter, Step: iter * 3, Grad: grad}
		packets := c.Split(m, mtu)
		rng.Shuffle(len(packets), func(i, j int) { packets[i], packets[j] = packets[j], packets[i] })
		asm := NewReassembler(DropGradient, nil)
		var got *GradientMsg
		for i := range packets {
			raw := c.AppendPacket(nil, &packets[i])
			p, err := c.DecodePacket(raw)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if msg, done := asm.Offer(p); done {
				got = msg
			}
		}
		if got == nil {
			t.Fatalf("iter %d: gradient never completed (d=%d mtu=%d)", iter, d, mtu)
		}
		for i := range grad {
			if got.Grad[i] != grad[i] {
				t.Fatalf("iter %d coord %d mismatch", iter, i)
			}
		}
	}
}
