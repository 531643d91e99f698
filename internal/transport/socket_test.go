package transport

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestTCPGradientRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	codec := Codec{}
	ln, err := ListenTCP("127.0.0.1:0", codec)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan *GradientMsg, 1)
	errs := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errs <- err
			return
		}
		defer conn.Close()
		msg, err := conn.RecvGradient()
		if err != nil {
			errs <- err
			return
		}
		done <- msg
	}()

	conn, err := DialTCP(ln.Addr(), codec)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	want := &GradientMsg{Worker: 5, Step: 77, Grad: randVec(rng, 10000)}
	if err := conn.SendGradient(want); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	case got := <-done:
		if got.Worker != 5 || got.Step != 77 || got.Grad.Dim() != 10000 {
			t.Fatalf("header mismatch: %+v", got)
		}
		for i := range want.Grad {
			if got.Grad[i] != want.Grad[i] {
				t.Fatalf("coord %d mismatch", i)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestTCPModelBroadcastAndGradientReply(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	codec := Codec{Float32: true}
	ln, err := ListenTCP("127.0.0.1:0", codec)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	errs := make(chan error, 1)
	go func() {
		// Worker side: receive model, send back scaled gradient.
		conn, err := DialTCP(ln.Addr(), codec)
		if err != nil {
			errs <- err
			return
		}
		defer conn.Close()
		grad := randVec(rand.New(rand.NewSource(3)), 500) // overwritten by the broadcast
		step, err := conn.RecvModel(grad)
		if err != nil {
			errs <- err
			return
		}
		grad.Scale(2)
		errs <- conn.SendGradient(&GradientMsg{Worker: 0, Step: step, Grad: grad})
	}()

	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	params := randVec(rng, 500)
	if err := server.SendModel(&ModelMsg{Step: 3, Params: params}); err != nil {
		t.Fatal(err)
	}
	got, err := server.RecvGradient()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got.Step != 3 {
		t.Fatalf("step %d, want 3", got.Step)
	}
	for i := range params {
		want := float64(float32(params[i])) * 2 // one float32 quantisation on the wire
		if math.Abs(got.Grad[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("coord %d: %v vs %v", i, got.Grad[i], want)
		}
	}
}

func TestUDPLosslessRoundTrip(t *testing.T) {
	codec := Codec{}
	recv, err := ListenUDP("127.0.0.1:0", codec, DropGradient, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := DialUDP(recv.Addr(), codec, DefaultMTU, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	rng := rand.New(rand.NewSource(3))
	want := &GradientMsg{Worker: 9, Step: 4, Grad: randVec(rng, 5000)}
	if err := send.SendGradient(want); err != nil {
		t.Fatal(err)
	}
	got, err := recv.RecvGradient(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Worker != 9 || got.Step != 4 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range want.Grad {
		if got.Grad[i] != want.Grad[i] {
			t.Fatalf("coord %d mismatch", i)
		}
	}
}

func TestUDPWithLossFillNaN(t *testing.T) {
	codec := Codec{}
	recv, err := ListenUDP("127.0.0.1:0", codec, FillNaN, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	// 20% artificial drop at the sender (the tc stand-in).
	send, err := DialUDP(recv.Addr(), codec, 512, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	rng := rand.New(rand.NewSource(6))
	want := &GradientMsg{Worker: 1, Step: 1, Grad: randVec(rng, 10000)}
	if err := send.SendGradient(want); err != nil {
		t.Fatal(err)
	}
	got, err := recv.RecvGradient(500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	nans := got.Grad.CountNonFinite()
	if nans == 0 {
		t.Fatal("expected lost coordinates as NaN under 20% drop")
	}
	intact := 0
	for i, x := range got.Grad {
		if !math.IsNaN(x) {
			if x != want.Grad[i] {
				t.Fatalf("survived coordinate %d altered", i)
			}
			intact++
		}
	}
	if intact == 0 {
		t.Fatal("no coordinates survived 20% loss — implausible")
	}
}

func TestUDPDropGradientTimesOut(t *testing.T) {
	codec := Codec{}
	recv, err := ListenUDP("127.0.0.1:0", codec, DropGradient, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := DialUDP(recv.Addr(), codec, 512, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	rng := rand.New(rand.NewSource(9))
	// 50% drop on ~170 packets: completion is essentially impossible.
	if err := send.SendGradient(&GradientMsg{Worker: 1, Step: 1, Grad: randVec(rng, 10000)}); err != nil {
		t.Fatal(err)
	}
	_, err = recv.RecvGradient(300 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if recv.Pending() != 0 {
		t.Fatal("timeout must drain pending state")
	}
}

func TestUDPBadDropRateRejected(t *testing.T) {
	if _, err := DialUDP("127.0.0.1:1", Codec{}, 0, 1.5, 1); err == nil {
		t.Fatal("want error for drop rate out of range")
	}
}

func TestUDPIgnoresGarbageDatagrams(t *testing.T) {
	codec := Codec{}
	recv, err := ListenUDP("127.0.0.1:0", codec, DropGradient, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	// A Byzantine peer sends garbage first; a correct gradient must still
	// get through.
	send, err := DialUDP(recv.Addr(), codec, DefaultMTU, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	if _, err := send.batcher.conn.Write([]byte("not a packet at all")); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	want := &GradientMsg{Worker: 2, Step: 2, Grad: randVec(rng, 100)}
	if err := send.SendGradient(want); err != nil {
		t.Fatal(err)
	}
	got, err := recv.RecvGradient(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Worker != 2 {
		t.Fatalf("got worker %d", got.Worker)
	}
}

// TestUDPDeadlineFlushOrderDeterministic is the regression test for the
// determinism bug in the deadline path: with several partial gradients
// pending when the timeout fires, the old code recouped whichever one Go's
// randomized map iteration visited first. Flushes must happen in ascending
// (worker, step) order, so repeated runs of the same loss pattern recoup the
// same gradients in the same order with the same fill values.
func TestUDPDeadlineFlushOrderDeterministic(t *testing.T) {
	run := func() []int {
		codec := Codec{}
		recv, err := ListenUDP("127.0.0.1:0", codec, FillNaN, 30)
		if err != nil {
			t.Fatal(err)
		}
		defer recv.Close()
		send, err := DialUDP(recv.Addr(), codec, 256, 0, 31)
		if err != nil {
			t.Fatal(err)
		}
		defer send.Close()

		rng := rand.New(rand.NewSource(32))
		// Five partial gradients: first packet only, rest "lost".
		for _, worker := range []int{7, 3, 9, 1, 5} {
			m := &GradientMsg{Worker: worker, Step: 2, Grad: randVec(rng, 200)}
			packets := codec.Split(m, 256)
			if err := send.SendPacket(&packets[0]); err != nil {
				t.Fatal(err)
			}
		}
		// Register every partial before forcing deadlines (the packet-level
		// ingest cannot flush anything).
		asm := recv.Reassembler()
		for recv.Pending() < 5 {
			pkt, err := recv.RecvPacket(2 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if _, done := asm.Offer(pkt); done {
				t.Fatal("a single packet completed a gradient")
			}
		}
		var order []int
		for i := 0; i < 5; i++ {
			msg, err := recv.RecvGradient(20 * time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			order = append(order, msg.Worker)
		}
		return order
	}
	want := []int{1, 3, 5, 7, 9}
	for attempt := 0; attempt < 3; attempt++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("attempt %d: deadline flush order %v, want ascending %v", attempt, got, want)
			}
		}
	}
}

// TestUDPGradientCarriesLossOverSocket pins the wire bugfix end to end: a
// loss value survives the datagram round trip (it used to arrive as 0).
func TestUDPGradientCarriesLossOverSocket(t *testing.T) {
	codec := Codec{}
	recv, err := ListenUDP("127.0.0.1:0", codec, DropGradient, 40)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := DialUDP(recv.Addr(), codec, DefaultMTU, 0, 41)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	rng := rand.New(rand.NewSource(42))
	want := &GradientMsg{Worker: 4, Step: 6, Loss: 1.375, Grad: randVec(rng, 5000)}
	if err := send.SendGradient(want); err != nil {
		t.Fatal(err)
	}
	got, err := recv.RecvGradient(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Loss != 1.375 {
		t.Fatalf("loss %v arrived, want 1.375", got.Loss)
	}
}

func TestUDPModelBroadcast(t *testing.T) {
	codec := Codec{}
	recv, err := ListenUDP("127.0.0.1:0", codec, FillNaN, 20)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := DialUDP(recv.Addr(), codec, DefaultMTU, 0, 21)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	rng := rand.New(rand.NewSource(22))
	want := &ModelMsg{Step: 5, Params: randVec(rng, 3000)}
	if err := send.SendModel(want); err != nil {
		t.Fatal(err)
	}
	got, err := recv.RecvModel(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 5 || got.Params.Dim() != 3000 {
		t.Fatalf("model header mismatch: %+v", got)
	}
	for i := range want.Params {
		if got.Params[i] != want.Params[i] {
			t.Fatalf("coord %d mismatch", i)
		}
	}
}

func TestUDPRecvModelRejectsGradient(t *testing.T) {
	codec := Codec{}
	recv, err := ListenUDP("127.0.0.1:0", codec, FillNaN, 23)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := DialUDP(recv.Addr(), codec, DefaultMTU, 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	if err := send.SendGradient(&GradientMsg{Worker: 3, Step: 1, Grad: randVec(rand.New(rand.NewSource(25)), 10)}); err != nil {
		t.Fatal(err)
	}
	if _, err := recv.RecvModel(2 * time.Second); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame for gradient on model channel, got %v", err)
	}
}
