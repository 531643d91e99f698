package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"aggregathor/internal/attack"
	"aggregathor/internal/core"
	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/scenario"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// The pacing every UDPCluster sender runs with (cluster.udpPaceBurst,
// cluster.udpPaceDelay are unexported): the UDP probes pace the same way.
const (
	paceBurst = 128 << 10
	paceDelay = time.Millisecond
)

// fanInDim is one step past the largest model the UDP backend carries
// without loss at n=19 today (h=64 → d=50,890); see README.md.
const fanInDim = 784*64 + 64 + 64*10 + 10

// opStats is what timeOp measured: the median duration of one call and the
// heap allocations per call over the whole loop.
type opStats struct {
	ns     float64
	allocs float64
	kb     float64
}

func (s opStats) perSecond(units float64) float64 { return units / (s.ns / 1e9) }

// timeOp calls fn once to warm it, then repeatedly until budget has passed
// (at least 3 times; once when budget is 0). If fn returns a positive
// duration, that is the call's time; otherwise the wall time of the call is.
func timeOp(budget time.Duration, fn func() (time.Duration, error)) (opStats, error) {
	if _, err := fn(); err != nil {
		return opStats{}, err
	}
	minIters := 3
	if budget == 0 {
		minIters = 1
	}
	durs := make([]float64, 0, 1024)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for begin := time.Now(); len(durs) < minIters || time.Since(begin) < budget; {
		t0 := time.Now()
		d, err := fn()
		if err != nil {
			return opStats{}, err
		}
		if d <= 0 {
			d = time.Since(t0)
		}
		durs = append(durs, float64(d.Nanoseconds()))
	}
	runtime.ReadMemStats(&ms1)
	n := float64(len(durs))
	return opStats{
		ns:     median(durs),
		allocs: float64(ms1.Mallocs-ms0.Mallocs) / n,
		kb:     float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e3 / n,
	}, nil
}

// wall adapts a plain function to timeOp.
func wall(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) { return 0, fn() }
}

func randomVector(rng *rand.Rand, d int) tensor.Vector {
	v := tensor.NewVector(d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// runProbes times each layer's public functions at the workload's shapes
// (n, d, batch, codec, MTU) and adds the results to m.
func runProbes(w workload, seed int64, budget time.Duration, m map[string]metric) error {
	rng := rand.New(rand.NewSource(seed + 7))
	model := w.modelFactory(seed)()
	d := model.NumParams()
	codec := w.codec()
	mtu := transport.DefaultMTU
	gradBytes := float64(d * 8)

	grads := make([]tensor.Vector, workers)
	for i := range grads {
		grads[i] = randomVector(rng, d)
	}

	// gar: the workload's rule on n seeded gradients, workspace path.
	rule, err := gar.New(w.GAR, declaredF)
	if err != nil {
		return err
	}
	ws := gar.NewWorkspace()
	st, err := timeOp(budget, wall(func() error {
		_, err := gar.AggregateInto(ws, rule, grads)
		return err
	}))
	if err != nil {
		return err
	}
	m["gar.aggregate_ms"] = metric{st.ns / 1e6, "ms"}
	m["gar.aggregate_mb_s"] = metric{st.perSecond(workers * gradBytes / 1e6), "MB/s"}
	m["gar.allocs_per_call"] = metric{st.allocs, "count"}

	// tensor: the two kernel families under the robust rules.
	const cols = 1024
	template := randomVector(rng, workers*cols)
	scratch := tensor.NewVector(workers * cols)
	var sink float64
	st, _ = timeOp(budget, wall(func() error {
		copy(scratch, template)
		for c := 0; c < cols; c++ {
			sink += tensor.MedianInPlace(scratch[c*workers : (c+1)*workers])
		}
		return nil
	}))
	m["tensor.median_ns_per_col"] = metric{st.ns / cols, "ns"}
	st, _ = timeOp(budget, wall(func() error {
		sink += tensor.SquaredDistance(grads[0], grads[1])
		return nil
	}))
	m["tensor.sqdist_gb_s"] = metric{st.perSecond(2 * gradBytes / 1e9), "GB/s"}

	// nn: one worker's share of a round.
	sampler := data.NewUniformSampler(data.SyntheticMNIST(trainSamples, seed), seed+11)
	x, y := sampler.Sample(batch)
	st, _ = timeOp(budget, wall(func() error {
		loss, _ := model.Gradient(x, y)
		sink += loss
		return nil
	}))
	m["nn.gradient_ms"] = metric{st.ns / 1e6, "ms"}
	m["nn.gradient_allocs"] = metric{st.allocs, "count"}
	params := model.ParamsVector()
	st, _ = timeOp(budget, wall(func() error {
		model.SetParamsVector(params)
		return nil
	}))
	m["nn.setparams_us"] = metric{st.ns / 1e3, "us"}

	// data: a probe on every workload, because the socket clusters build
	// their samplers themselves and leave a decorator nothing to wrap. The
	// in-process sampler spans are in the trace file and in ps.round_self_ms.
	st, _ = timeOp(budget, wall(func() error {
		sampler.Sample(batch)
		return nil
	}))
	m["data.sample_us"] = metric{st.ns / 1e3, "us"}

	// attack: the forgery udp-lossy-25k's four Byzantine workers submit.
	atk, err := attack.New("reversed")
	if err != nil {
		return err
	}
	ctx := &attack.Context{Own: grads[0], N: workers, F: declaredF, Dim: d, Rng: rng}
	st, _ = timeOp(budget, wall(func() error {
		sink += atk.Forge(ctx)[0]
		return nil
	}))
	m["attack.forge_us"] = metric{st.ns / 1e3, "us"}
	_ = sink

	msg := &transport.GradientMsg{Worker: 1, Step: 1, Loss: 0.5, Grad: grads[0]}
	if err := probeTCP(codec, msg, budget, m); err != nil {
		return err
	}
	probePackets(codec, mtu, msg, budget, m)
	if err := probeUDP(codec, mtu, msg, budget, m); err != nil {
		return err
	}
	share, err := probeFanIn(mtu, seed)
	if err != nil {
		return err
	}
	m["transport.udp_fanin_delivered_share"] = metric{share, "ratio"}
	wireMetrics(w, d, mtu, m)
	return probeCampaign(seed, m)
}

// probeTCP moves one gradient message at a time over a loopback TCPConn
// pair; the receiver needs its own goroutine because a message outgrows the
// socket buffer.
func probeTCP(codec transport.Codec, msg *transport.GradientMsg, budget time.Duration, m map[string]metric) error {
	ln, err := transport.ListenTCP("127.0.0.1:0", codec)
	if err != nil {
		return err
	}
	defer ln.Close()
	client, err := transport.DialTCP(ln.Addr(), codec)
	if err != nil {
		return err
	}
	server, err := ln.Accept()
	if err != nil {
		client.Close()
		return err
	}
	received := make(chan error, 1) // room for the reader's terminal error, so it never blocks on exit
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			_, err := server.RecvGradient()
			received <- err
			if err != nil {
				return
			}
		}
	}()
	st, err := timeOp(budget, wall(func() error {
		if err := client.SendGradient(msg); err != nil {
			return err
		}
		return <-received
	}))
	client.Close()
	server.Close()
	wg.Wait()
	if err != nil {
		return err
	}
	m["transport.tcp_gradient_mb_s"] = metric{st.perSecond(float64(len(msg.Grad)*8) / 1e6), "MB/s"}
	m["transport.tcp_allocs_per_msg"] = metric{st.allocs, "count"}
	m["transport.tcp_alloc_kb_per_msg"] = metric{st.kb, "KB"}
	return nil
}

// probePackets times the datagram codec with no socket: split and encode on
// the way out, decode and reassemble on the way in, and the recoup of a
// gradient with every tenth packet withheld.
func probePackets(codec transport.Codec, mtu int, msg *transport.GradientMsg, budget time.Duration, m map[string]metric) {
	gradMB := float64(len(msg.Grad)*8) / 1e6
	var pkts []transport.Packet
	arena := make([]byte, 0, codec.PacketsPerTransfer(len(msg.Grad), mtu)*mtu)
	var frames [][]byte
	st, _ := timeOp(budget, wall(func() error {
		pkts = codec.SplitInto(pkts[:0], msg, mtu)
		arena, frames = arena[:0], frames[:0]
		for i := range pkts {
			start := len(arena)
			arena = codec.AppendPacket(arena, &pkts[i])
			frames = append(frames, arena[start:])
		}
		return nil
	}))
	m["transport.split_encode_mb_s"] = metric{st.perSecond(gradMB), "MB/s"}

	asm := transport.NewReassembler(transport.DropGradient, nil)
	st, _ = timeOp(budget, wall(func() error {
		for _, f := range frames {
			p, err := codec.DecodePacket(f)
			if err != nil {
				return err
			}
			asm.Offer(p)
		}
		return nil
	}))
	m["transport.decode_reassemble_mb_s"] = metric{st.perSecond(gradMB), "MB/s"}

	st, _ = timeOp(budget, func() (time.Duration, error) {
		for i := range pkts {
			if i%10 != 0 {
				asm.Offer(&pkts[i])
			}
		}
		t0 := time.Now()
		asm.FlushFill(msg.Worker, msg.Step, func(int) float64 { return 0.5 })
		return time.Since(t0), nil
	})
	m["transport.recoup_fill_mb_s"] = metric{st.perSecond(gradMB), "MB/s"}
}

// drain reads and discards datagrams until the socket is closed.
func drain(conn *net.UDPConn, wg *sync.WaitGroup) {
	defer wg.Done()
	buf := make([]byte, 65536)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

// probeUDP drives one paced sender, first into a sink that discards (the
// send path alone), then into a receiver that reassembles on its own
// goroutine, as the cluster's server does while its workers send.
func probeUDP(codec transport.Codec, mtu int, msg *transport.GradientMsg, budget time.Duration, m map[string]metric) error {
	gradMB := float64(len(msg.Grad)*8) / 1e6
	packets := float64(codec.PacketsPerTransfer(len(msg.Grad), mtu))

	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go drain(sink, &wg)
	send, err := transport.DialUDP(sink.LocalAddr().String(), codec, mtu, 0, 1)
	if err == nil {
		send.SetPacing(paceBurst, paceDelay)
		var st opStats
		st, err = timeOp(budget, wall(func() error { return send.SendGradient(msg) }))
		send.Close()
		m["transport.udp_send_mb_s"] = metric{st.perSecond(gradMB), "MB/s"}
		m["transport.udp_send_allocs_per_packet"] = metric{st.allocs / packets, "count"}
	}
	sink.Close()
	wg.Wait()
	if err != nil {
		return err
	}
	sendAllocs := m["transport.udp_send_allocs_per_packet"].Value

	// FillNaN so that a transfer with packets lost in the kernel still
	// completes at the timeout, with the lost coordinates countable.
	recv, err := transport.ListenUDP("127.0.0.1:0", codec, transport.FillNaN, 1)
	if err != nil {
		return err
	}
	defer recv.Close()
	send, err = transport.DialUDP(recv.Addr(), codec, mtu, 0, 1)
	if err != nil {
		return err
	}
	defer send.Close()
	send.SetPacing(paceBurst, paceDelay)
	type outcome struct {
		lostCoords int
		err        error
	}
	requests, outcomes := make(chan struct{}), make(chan outcome)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range requests {
			got, err := recv.RecvGradient(500 * time.Millisecond)
			var o outcome
			if err != nil {
				o.err = err
			} else {
				for _, x := range got.Grad {
					if math.IsNaN(x) {
						o.lostCoords++
					}
				}
			}
			outcomes <- o
		}
	}()
	var transfers, lostCoords int
	st, err := timeOp(budget, wall(func() error {
		msg.Step++
		requests <- struct{}{}
		if err := send.SendGradient(msg); err != nil {
			<-outcomes
			return err
		}
		o := <-outcomes
		transfers++
		lostCoords += o.lostCoords
		return o.err
	}))
	close(requests)
	wg.Wait()
	if err != nil {
		return err
	}
	m["transport.udp_e2e_mb_s"] = metric{st.perSecond(gradMB), "MB/s"}
	m["transport.udp_recv_allocs_per_packet"] = metric{st.allocs/packets - sendAllocs, "count"}
	m["transport.udp_lost_packet_share"] = metric{float64(lostCoords) / float64(transfers*len(msg.Grad)), "ratio"}
	return nil
}

// probeFanIn is a count, not a time: n paced senders each push one float64
// gradient of fanInDim coordinates at one receiver at once, and the share of
// packets that come out of the kernel is reported. Below 1 the receive
// buffer overflowed, which is why the UDP workloads sit at d=25k.
func probeFanIn(mtu int, seed int64) (float64, error) {
	codec := transport.Codec{}
	recv, err := transport.ListenUDP("127.0.0.1:0", codec, transport.DropGradient, 1)
	if err != nil {
		return 0, err
	}
	defer recv.Close()
	grad := randomVector(rand.New(rand.NewSource(seed+13)), fanInDim)
	sent := workers * codec.PacketsPerTransfer(fanInDim, mtu)
	errs := make(chan error, workers)
	for id := 0; id < workers; id++ {
		go func(id int) {
			send, err := transport.DialUDP(recv.Addr(), codec, mtu, 0, 1)
			if err != nil {
				errs <- err
				return
			}
			defer send.Close()
			send.SetPacing(paceBurst, paceDelay)
			errs <- send.SendGradient(&transport.GradientMsg{Worker: id, Grad: grad})
		}(id)
	}
	delivered := 0
	for delivered < sent {
		if _, err := recv.RecvPacket(300 * time.Millisecond); err != nil {
			break // quiet: what is missing was dropped
		}
		delivered++
	}
	for id := 0; id < workers; id++ {
		if err := <-errs; err != nil {
			return 0, err
		}
	}
	return float64(delivered) / float64(sent), nil
}

// wireMetrics are computed, not measured: what one gradient and one round
// put on the wire, uplink plus downlink.
func wireMetrics(w workload, d, mtu int, m map[string]metric) {
	codec := w.codec()
	var packets int
	var roundBytes float64
	switch w.Backend {
	case backendTCP:
		const frameHeader = 4 // transport.TCPConn length prefix
		v := tensor.NewVector(d)
		up := frameHeader + len(codec.EncodeGradient(&transport.GradientMsg{Grad: v}))
		down := frameHeader + len(codec.EncodeModel(&transport.ModelMsg{Params: v}))
		packets, roundBytes = 1, float64(workers*(up+down))
	case backendUDP:
		packets = codec.PacketsPerTransfer(d, mtu)
		pkts := codec.Split(&transport.GradientMsg{Grad: tensor.NewVector(d)}, mtu)
		for i := range pkts {
			roundBytes += float64(2 * workers * codec.PacketWireLen(&pkts[i]))
		}
		roundBytes *= 1 - w.DropRate // scheduled drops never reach the socket
	}
	m["transport.packets_per_gradient"] = metric{float64(packets), "count"}
	m["transport.wire_kb_per_round"] = metric{roundBytes / 1e3, "KB"}
}

// probeCampaign times what a cmd/scenario user runs: the built-in UDP smoke
// campaign three times (its JSON must not change between reruns) and one
// default core.Run of 60 steps.
func probeCampaign(seed int64, m map[string]metric) error {
	spec := scenario.UDPSmokeSpec()
	spec.Seeds = []int64{seed}
	spec.Parallelism = runtime.GOMAXPROCS(0)
	const reruns = 3
	var first []byte
	identical := 1.0
	var cells int
	begin := time.Now()
	for i := 0; i < reruns; i++ {
		c, err := scenario.Execute(spec)
		if err != nil {
			return err
		}
		js, err := c.JSON()
		if err != nil {
			return err
		}
		cells += len(c.Results)
		if i == 0 {
			first = js
		} else if !bytes.Equal(first, js) {
			identical = 0
		}
	}
	m["scenario.cells_per_s"] = metric{float64(cells) / time.Since(begin).Seconds(), "cells/s"}
	m["scenario.rerun_identical"] = metric{identical, "count"}

	begin = time.Now()
	if _, err := core.Run(core.Config{Steps: 60, Seed: seed}); err != nil {
		return fmt.Errorf("core.Run: %w", err)
	}
	m["core.run_ms"] = metric{float64(time.Since(begin).Nanoseconds()) / 1e6, "ms"}
	return nil
}
