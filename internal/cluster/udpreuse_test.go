package cluster

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// scribble overwrites everything a received packet holds — its header and
// the whole capacity of its coordinate buffer — as the receiver's next decode
// will.
func scribble(p *transport.Packet) {
	buf := p.Coords[:cap(p.Coords)]
	for i := range buf {
		buf[i] = math.NaN()
	}
	p.Worker, p.Step, p.Dim, p.Offset, p.Loss = -1, -1, -1, -1, math.NaN()
}

func sameBits(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRecvPacketReuseDoesNotAliasReassembly: RecvPacket hands out the
// receiver's one packet, decoded over at the next receive. Its three
// consumers — Reassembler.Offer, Round.OfferPacket, ModelCollector.Next —
// must have copied what they keep: overwriting the packet after each hand-off
// leaves every assembled vector bit-unchanged.
func TestRecvPacketReuseDoesNotAliasReassembly(t *testing.T) {
	const mtu = 128 // 11 float64 coordinates a packet: every transfer is many datagrams
	codec := transport.Codec{}
	recv, err := transport.ListenUDP("127.0.0.1:0", codec, transport.DropGradient, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := transport.DialUDP(recv.Addr(), codec, mtu, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	rng := rand.New(rand.NewSource(21))
	randomVec := func(dim int) tensor.Vector {
		v := tensor.NewVector(dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	// transfer sends one message and hands every packet of it to offer,
	// scribbling over the packet as soon as offer returns.
	transfer := func(msg *transport.GradientMsg, offer func(*transport.Packet)) {
		t.Helper()
		if err := send.SendGradient(msg); err != nil {
			t.Fatal(err)
		}
		for n := codec.PacketsPerTransfer(len(msg.Grad), mtu); n > 0; n-- {
			pkt, err := recv.RecvPacket(2 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			offer(pkt)
			scribble(pkt)
		}
	}

	t.Run("Reassembler.Offer", func(t *testing.T) {
		asm := transport.NewReassembler(transport.DropGradient, nil)
		grads := []tensor.Vector{randomVec(300), randomVec(300)}
		var got []*transport.GradientMsg
		for step, g := range grads {
			transfer(&transport.GradientMsg{Worker: 2, Step: step, Loss: 0.5, Grad: g}, func(p *transport.Packet) {
				if msg, done := asm.Offer(p); done {
					got = append(got, msg)
				}
			})
		}
		if len(got) != len(grads) {
			t.Fatalf("%d gradients assembled, want %d", len(got), len(grads))
		}
		for step, g := range grads {
			if !sameBits(got[step].Grad, g) || got[step].Step != step || got[step].Worker != 2 {
				t.Fatalf("gradient %d changed after its packets were overwritten", step)
			}
		}
	})

	t.Run("Round.OfferPacket", func(t *testing.T) {
		const n = 3
		engine := func() *ps.Engine {
			e, err := ps.NewEngine(ps.EngineConfig{
				RoundConfig: ps.RoundConfig{Workers: n, Link: ps.Link{Codec: codec, MTU: mtu}},
				Model:       nn.NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(10))),
				GAR:         gar.Average{}, Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.2}},
			})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		packets, whole := engine(), engine()
		for step := 0; step < 2; step++ {
			pr, wr := packets.Begin(), whole.Begin()
			for id := 0; id < n; id++ {
				g := randomVec(len(pr.Params()))
				transfer(&transport.GradientMsg{Worker: id, Step: step, Loss: 1, Grad: g}, func(p *transport.Packet) {
					if v := pr.OfferPacket(p); !v.Admitted() {
						t.Fatalf("packet of worker %d at step %d: %v", id, step, v)
					}
				})
				wr.Offer(id, step, g, 1)
			}
			if pr.Outstanding() != 0 {
				t.Fatalf("step %d: %d slots outstanding after every packet was offered", step, pr.Outstanding())
			}
			if _, err := pr.Finish(); err != nil {
				t.Fatal(err)
			}
			if _, err := wr.Finish(); err != nil {
				t.Fatal(err)
			}
			if !sameBits(packets.Params(), whole.Params()) {
				t.Fatalf("step %d: parameters from overwritten packets differ from the same gradients offered whole", step)
			}
		}
	})

	t.Run("ModelCollector.Next", func(t *testing.T) {
		const dim = 300
		col := transport.NewModelCollector(recv, transport.ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec,
			BroadcastTimeout: 2 * time.Second, IdleTimeout: 5 * time.Second})
		models := []tensor.Vector{randomVec(dim), randomVec(dim)}
		var got []tensor.Vector
		for step, m := range models {
			if err := send.SendModel(&transport.ModelMsg{Step: step, Params: m}); err != nil {
				t.Fatal(err)
			}
			ev, err := col.Next(tensor.NewVector(dim))
			if err != nil || !ev.Complete || ev.Step != step {
				t.Fatalf("broadcast %d settled as %+v (error %v)", step, ev, err)
			}
			got = append(got, ev.Params)
			// One more datagram brings the receiver's packet back into reach.
			transfer(&transport.GradientMsg{Worker: 1, Step: step, Grad: randomVec(5)}, func(*transport.Packet) {})
		}
		for step, m := range models {
			if !sameBits(got[step], m) {
				t.Fatalf("model %d changed after the receiver's packet was overwritten", step)
			}
		}
	})
}

// TestUDPClusterSteadyStateAllocsPerDatagram holds the receive path at what
// the packet reuse bought: over 20 lossless rounds the whole process — server
// round, five workers, both directions — allocates under 0.1 objects per
// datagram received, where a packet and a coordinate vector per datagram made
// it 2.
func TestUDPClusterSteadyStateAllocsPerDatagram(t *testing.T) {
	const workers, mtu, rounds = 5, 128, 20
	ds := data.SyntheticFeatures(120, 6, 3, 9)
	ds.MinMaxScale()
	cl, err := NewUDPCluster(UDPClusterConfig{
		Addr: "127.0.0.1:0", Workers: workers, MTU: mtu, RoundTimeout: 5 * time.Second, Seed: 4,
		// 2,563 parameters: 233 datagrams a transfer.
		ModelFactory: func() *nn.Network { return nn.NewMLP(6, []int{256}, 3, rand.New(rand.NewSource(10))) },
		Train:        ds, Batch: 8, GAR: gar.NewMultiKrum(1), Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	step := func() {
		t.Helper()
		res, err := cl.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.Received != workers {
			t.Fatalf("step %d: %d gradients received, want a whole round of %d", res.Step, res.Received, workers)
		}
	}
	for i := 0; i < 5; i++ {
		step() // warm every scratch buffer
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	// Each round, every worker receives the model and the server receives
	// every worker's gradient.
	datagrams := rounds * 2 * workers * cl.cfg.Codec.PacketsPerTransfer(cl.Model().NumParams(), mtu)
	perDatagram := float64(after.Mallocs-before.Mallocs) / float64(datagrams)
	t.Logf("%d allocations over %d datagrams: %.4f per datagram", after.Mallocs-before.Mallocs, datagrams, perDatagram)
	if perDatagram >= 0.1 {
		t.Fatalf("%.3f allocations per datagram received, want < 0.1", perDatagram)
	}
}
