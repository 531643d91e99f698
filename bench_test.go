// Benchmarks regenerating the paper's tables and figures. Each benchmark
// exercises the real kernel behind one exhibit and reports the figure's
// headline quantity via b.ReportMetric; Figures 3, 6, 7 and 8 are the rows of
// claims_test.go (BenchmarkFigures), and Table 1's layer table is
// Example_table1:
//
//	go test -run Example_table1 -v .
//	go test -run=NONE -bench 'Table1|Fig|Cost' -benchtime=1x .
package aggregathor

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"aggregathor/internal/attack"
	"aggregathor/internal/core"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/simnet"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

func randGrads(seed int64, n, d int) []tensor.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]tensor.Vector, n)
	for i := range out {
		v := tensor.NewVector(d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// BenchmarkTable1_ModelParams builds the Table-1 CNN and reports its
// parameter count (paper: ≈1.75M). Example_table1 prints the layer table.
func BenchmarkTable1_ModelParams(b *testing.B) {
	var params int
	for i := 0; i < b.N; i++ {
		n := nn.NewCIFARCNN(rand.New(rand.NewSource(1)))
		params = n.NumParams()
	}
	b.ReportMetric(float64(params), "params")
}

// Example_table1 prints Table 1, the CNN's layers and parameter counts. It
// is an example rather than a benchmark log because the testing package
// trims a benchmark's log to ten lines.
func Example_table1() {
	fmt.Print(nn.NewCIFARCNN(rand.New(rand.NewSource(1))).Summary())
	// Output:
	// layer                  output             params
	// input                  32x32x3                 0
	// conv2d(5x5x64/1)       32x32x64             4864
	// relu                   32x32x64                0
	// maxpool(3x3/2)         16x16x64                0
	// conv2d(5x5x64/1)       16x16x64           102464
	// relu                   16x16x64                0
	// maxpool(3x3/2)         8x8x64                  0
	// flatten                1x1x4096                0
	// dense(4096->384)       1x1x384           1573248
	// relu                   1x1x384                 0
	// dense(384->192)        1x1x192             73920
	// relu                   1x1x192                 0
	// dense(192->10)         1x1x10               1930
	// total                                    1756426
}

// BenchmarkFig4_LatencyBreakdown measures real GAR aggregation time (n=19,
// d=200k to keep the bench loop sane) and reports the modelled per-epoch
// aggregation share at full Table-1 scale (paper: median 35%, multi-krum
// 27%, bulyan 52%).
func BenchmarkFig4_LatencyBreakdown(b *testing.B) {
	const n, dBench, dFull = 19, 200_000, 1_756_426
	for _, cfg := range []struct {
		name string
		f    int
	}{
		{"median", 0}, {"multi-krum", 4}, {"bulyan", 4},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			rule, err := gar.New(cfg.name, cfg.f)
			if err != nil {
				b.Fatal(err)
			}
			grads := randGrads(4, n, dBench)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gar.Aggregate(rule, grads); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			sim := simnet.Grid5000(n, dFull)
			sim.AggTime = simnet.ModelAggregation(cfg.name, n, cfg.f, dFull)
			round := sim.SimulateRound(100)
			share := round.Aggregate.Seconds() / round.Total().Seconds()
			b.ReportMetric(share, "aggregation_share")
		})
	}
}

// BenchmarkFig5a_ThroughputCNN reproduces the Figure-5(a) scan: throughput
// at 18 workers per aggregator on the Table-1 CNN cost profile.
func BenchmarkFig5a_ThroughputCNN(b *testing.B) {
	counts := []int{2, 6, 10, 14, 18}
	for _, cfg := range []struct {
		name string
		f    int
	}{
		{"average", 0}, {"median", 0},
		{"multi-krum", 1}, {"multi-krum", 4},
		{"bulyan", 1}, {"bulyan", 2},
		{"draco", 1}, {"draco", 4},
	} {
		cfg := cfg
		b.Run(fmt.Sprintf("%s_f%d", cfg.name, cfg.f), func(b *testing.B) {
			var tp map[int]float64
			for i := 0; i < b.N; i++ {
				tp = throughputScan(cfg.name, cfg.f, counts, 1_756_426, nn.CIFARCNNFlopsPerSample, 100)
			}
			b.ReportMetric(tp[18], "batches_per_s_n18")
			b.ReportMetric(tp[2], "batches_per_s_n2")
		})
	}
}

// BenchmarkFig5b_ThroughputResNet reproduces Figure 5(b): at ResNet50 cost,
// gradient computation dominates and the GAR curves converge.
func BenchmarkFig5b_ThroughputResNet(b *testing.B) {
	counts := []int{2, 6, 10, 14, 18}
	for _, cfg := range []struct {
		name string
		f    int
	}{
		{"average", 0}, {"median", 0}, {"multi-krum", 1}, {"bulyan", 1}, {"draco", 1},
	} {
		cfg := cfg
		b.Run(fmt.Sprintf("%s_f%d", cfg.name, cfg.f), func(b *testing.B) {
			var tp map[int]float64
			for i := 0; i < b.N; i++ {
				tp = throughputScan(cfg.name, cfg.f, counts, resNet50ParamCount, resNet50FlopsPerSample, 32)
			}
			b.ReportMetric(tp[18], "batches_per_s_n18")
		})
	}
}

// throughputScan is the Figure-5 sweep: batches/sec as a function of worker
// count for one aggregator, using the analytic time model (no training — the
// paper's throughput metric is purely systems-side).
func throughputScan(aggregator string, f int, workerCounts []int, dim int, flopsPerSample float64, batch int) map[int]float64 {
	out := make(map[int]float64, len(workerCounts))
	for _, n := range workerCounts {
		sim := simnet.Grid5000(n, dim)
		sim.FlopsPerSample = flopsPerSample
		switch aggregator {
		case "tf":
			// vanilla baseline: no aggregation cost on the clock
		case "draco":
			sim.DecodeTime = simnet.ModelAggregation("draco", n, f, dim)
		default:
			sim.AggTime = simnet.ModelAggregation(aggregator, n, f, dim)
		}
		round := sim.SimulateRound(batch)
		out[n] = float64(n) / round.Total().Seconds()
	}
	return out
}

// Figure 5(b)'s ResNet50 is not instantiated: the throughput scan needs only
// its gradient dimension d and its per-sample compute cost, the
// forward+backward FLOPs of one 224×224 image (≈3.8 GFLOPs forward, ×3 for
// backward).
const (
	resNet50ParamCount     = 25_557_032
	resNet50FlopsPerSample = 3.8e9 * 3
)

func TestThroughputScanShapes(t *testing.T) {
	counts := []int{2, 6, 10, 14, 18}
	tf := throughputScan("average", 0, counts, 1_756_426, 2e8, 100)
	bl := throughputScan("bulyan", 2, counts, 1_756_426, 2e8, 100)
	draco := throughputScan("draco", 4, counts, 1_756_426, 2e8, 100)
	// Throughput grows with workers for the cheap GAR.
	if tf[18] <= tf[2] {
		t.Fatal("average throughput should grow with workers")
	}
	// Bulyan lags average at scale.
	if bl[18] >= tf[18] {
		t.Fatalf("bulyan (%v) should lag average (%v) at 18 workers", bl[18], tf[18])
	}
	// Draco sits far below the TensorFlow-based systems.
	if draco[18] >= tf[18]/4 {
		t.Fatalf("draco (%v) should sit far below average (%v)", draco[18], tf[18])
	}
}

func TestThroughputScanTFBaseline(t *testing.T) {
	counts := []int{2, 18}
	tf := throughputScan("tf", 0, counts, 1_756_426, 2e8, 100)
	avg := throughputScan("average", 0, counts, 1_756_426, 2e8, 100)
	if tf[18] <= avg[18] {
		t.Fatalf("tf (%v) must beat framework averaging (%v): no aggregation cost", tf[18], avg[18])
	}
}

func TestResNet50Constants(t *testing.T) {
	if resNet50ParamCount < 23_000_000 || resNet50ParamCount > 26_000_000 {
		t.Fatalf("ResNet50 param count %d implausible", resNet50ParamCount)
	}
	if resNet50FlopsPerSample <= nn.CIFARCNNFlopsPerSample {
		t.Fatal("ResNet50 must cost more than the CIFAR CNN")
	}
}

// BenchmarkCost_GARComplexity measures the real O(n²d) aggregation kernels
// across n and d (the §4.2 cost analysis).
func BenchmarkCost_GARComplexity(b *testing.B) {
	for _, name := range []string{"average", "median", "multi-krum", "bulyan"} {
		for _, n := range []int{7, 19} {
			for _, d := range []int{10_000, 100_000} {
				name, n, d := name, n, d
				f := 1
				if n >= 19 {
					f = 4
				}
				b.Run(fmt.Sprintf("%s/n%d/d%d", name, n, d), func(b *testing.B) {
					rule, err := gar.New(name, f)
					if err != nil {
						b.Fatal(err)
					}
					grads := randGrads(9, n, d)
					b.SetBytes(int64(n * d * 8))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := gar.Aggregate(rule, grads); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkByz_StrongVsWeak quantifies §4.3: the omniscient attack's
// deviation of the target coordinate under MULTI-KRUM (weak) vs BULYAN
// (strong).
func BenchmarkByz_StrongVsWeak(b *testing.B) {
	n, f, d := 19, 4, 256
	rng := rand.New(rand.NewSource(9))
	honest := make([]tensor.Vector, n-f)
	for i := range honest {
		v := tensor.NewVector(d)
		for j := range v {
			v[j] = 1 + rng.NormFloat64()*0.2
		}
		honest[i] = v
	}
	ctx := &attack.Context{Honest: honest, N: n, F: f, Dim: d, Rng: rng}
	forged := attack.Omniscient{}.Forge(ctx)
	grads := append(append([]tensor.Vector{}, honest...), forged, forged, forged, forged)
	honestMean := tensor.Mean(honest)

	for _, cfg := range []struct {
		name string
		rule gar.GAR
	}{
		{"multi-krum", gar.NewMultiKrum(f)},
		{"bulyan", gar.NewBulyan(f)},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var dev float64
			for i := 0; i < b.N; i++ {
				out, err := gar.Aggregate(cfg.rule, grads)
				if err != nil {
					b.Fatal(err)
				}
				dev = out[0] - honestMean[0]
				if dev < 0 {
					dev = -dev
				}
			}
			b.ReportMetric(dev, "target_coord_deviation")
		})
	}
}

// BenchmarkCost_BlockedDistances times the cache-blocked pairwise-distance
// engine at the paper's n=19 for the Fig-4 bench dimension and the full
// Table-1 dimension. Each sub-benchmark feeds its measured kernel time into
// the Fig-4 latency model (Grid5000 round at full scale) and reports the
// implied aggregation share of a round.
func BenchmarkCost_BlockedDistances(b *testing.B) {
	const n, dFull = 19, 1_756_426
	for _, d := range []int{200_000, dFull} {
		grads := randGrads(15, n, d)
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			b.SetBytes(int64(n * d * 8))
			var ws gar.Workspace
			for i := 0; i < b.N; i++ {
				gar.BlockedPairwiseSquaredDistances(grads, &ws)
			}
			b.StopTimer()
			perRound := time.Duration(float64(b.Elapsed()) / float64(b.N) * float64(dFull) / float64(d))
			sim := simnet.Grid5000(n, dFull)
			sim.AggTime = perRound
			round := sim.SimulateRound(100)
			b.ReportMetric(round.Aggregate.Seconds()/round.Total().Seconds(), "fig4_agg_share")
		})
	}
}

// BenchmarkAblation_SelectMedian compares the column engine's tile-wide
// sorting-network median against the per-column quickselect kernel and the
// previous sort.Float64s path, at the paper's n=19 and a wide n=99
// deployment (too tall for a network: the engine itself falls back to
// quickselect there). One op is a pass over every column; the per-column
// cost is extrapolated to the Table-1 dimension and reported as the
// modelled Fig-4 median-GAR seconds.
func BenchmarkAblation_SelectMedian(b *testing.B) {
	const cols, dFull = 100_000, 1_756_426
	for _, n := range []int{19, 99} {
		grads := randGrads(16, n, cols)
		out := tensor.NewVector(cols)
		scratch := make([]float64, n)
		perColumn := func(median func(col []float64) float64) func() {
			return func() {
				for j := range out {
					for i, g := range grads {
						scratch[i] = g[j]
					}
					out[j] = median(scratch)
				}
			}
		}
		var engine tensor.ColumnEngine
		for _, cfg := range []struct {
			name string
			pass func()
		}{
			{"quickselect", perColumn(tensor.MedianInPlace)},
			{"tile-sortnet", func() { engine.Run(out, grads, 0, tensor.MedianKernel) }},
			{"sort", perColumn(func(col []float64) float64 {
				sort.Float64s(col)
				mid := n / 2
				if n%2 == 1 {
					return col[mid]
				}
				return col[mid-1]/2 + col[mid]/2
			})},
		} {
			cfg := cfg
			b.Run(fmt.Sprintf("%s/n%d", cfg.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg.pass()
				}
				b.StopTimer()
				perCol := float64(b.Elapsed()) / float64(b.N) / cols
				b.ReportMetric(perCol, "ns_per_column")
				b.ReportMetric(perCol*dFull/1e9, "fig4_median_agg_s")
			})
		}
	}
}

// BenchmarkAblation_Workspace quantifies the zero-allocation workspace path
// against the fresh-allocation Aggregate for the hot rules.
func BenchmarkAblation_Workspace(b *testing.B) {
	const n, d = 19, 100_000
	grads := randGrads(17, n, d)
	for _, cfg := range []struct {
		name string
		rule gar.GAR
	}{
		{"median", gar.Median{}},
		{"multi-krum", gar.NewMultiKrum(4)},
		{"bulyan", gar.NewBulyan(4)},
	} {
		cfg := cfg
		b.Run("fresh/"+cfg.name, func(b *testing.B) {
			b.SetBytes(int64(n * d * 8))
			for i := 0; i < b.N; i++ {
				if _, err := gar.Aggregate(cfg.rule, grads); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("workspace/"+cfg.name, func(b *testing.B) {
			ws := gar.NewWorkspace()
			b.SetBytes(int64(n * d * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gar.AggregateInto(ws, cfg.rule, grads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_RecoupPolicy times short training runs with every worker
// on the in-process datagram link (float32 wire, 10% drop) under the three
// §3.3 recoup policies, through core.Run — the same scheduled drops and the
// same engine recoup the udp backend runs.
func BenchmarkAblation_RecoupPolicy(b *testing.B) {
	for _, policy := range []transport.RecoupPolicy{
		transport.DropGradient, transport.FillNaN, transport.FillRandom,
	} {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			const n = 7
			delivered := 0.0
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Aggregator: "median", Workers: n, Batch: 16, Steps: 20, EvalEvery: 20,
					Seed: 12, Network: core.Network{UDPLinks: n, DropRate: 0.10, Recoup: policy.String(), WireFormat: transport.WireFloat32},
				})
				if err != nil {
					b.Fatal(err)
				}
				delivered = res.Throughput.GradientsPerSecond() / res.Throughput.BatchesPerSecond() / n
			}
			b.ReportMetric(delivered, "delivery_rate")
		})
	}
}

// BenchmarkAblation_WireFormat compares float32 vs float64 gradient encoding.
func BenchmarkAblation_WireFormat(b *testing.B) {
	grad := randGrads(14, 1, 100_000)[0]
	msg := &transport.GradientMsg{Worker: 0, Step: 0, Grad: grad}
	for _, cfg := range []struct {
		name  string
		codec transport.Codec
	}{
		{"float32", transport.Codec{Float32: true}},
		{"float64", transport.Codec{}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			b.SetBytes(int64(len(grad) * cfg.codec.BytesPerCoord()))
			for i := 0; i < b.N; i++ {
				buf := cfg.codec.EncodeGradient(msg)
				if _, err := cfg.codec.DecodePacket(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransport_GradientTransfer times complete d=200k gradient
// transfers over a loopback UDP socket pair — split, encode, write, read,
// decode, reassemble — on both wire formats. One
// transfer is in flight at a time so the kernel receive buffer bounds the
// burst and the loopback path stays loss-free. Bytes/s counts the in-memory
// gradient payload (d × 8) so the float32 wire shows up as a genuine
// end-to-end speedup, not a smaller numerator.
func BenchmarkTransport_GradientTransfer(b *testing.B) {
	grad := randGrads(18, 1, 200_000)[0]
	for _, cfg := range []struct {
		name  string
		codec transport.Codec
	}{
		{"f64-batched", transport.Codec{}},
		{"f32-batched", transport.Codec{Float32: true}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			recv, err := transport.ListenUDP("127.0.0.1:0", cfg.codec, transport.DropGradient, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer recv.Close()
			send, err := transport.DialUDP(recv.Addr(), cfg.codec, transport.DefaultMTU, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer send.Close()
			msg := &transport.GradientMsg{Worker: 1, Grad: grad}
			b.SetBytes(int64(len(grad) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msg.Step = i
				if err := send.SendGradient(msg); err != nil {
					b.Fatal(err)
				}
				got, err := recv.RecvGradient(10 * time.Second)
				if err != nil {
					b.Fatal(err)
				}
				if got.Step != i || got.Grad.Dim() != grad.Dim() {
					b.Fatalf("transfer corrupted at step %d (step %d, dim %d)",
						i, got.Step, got.Grad.Dim())
				}
			}
		})
	}
}

// gateDim is the gradient dimension of the transport fixtures below.
const gateDim = 200_000

// An allocFixture is one zero-allocation path, set up and warmed, that its
// benchmark times and TestSteadyStateAllocGates holds to its bounds: op runs
// the path once, bytes is the payload an op moves, and pkts and stats, on
// the datagram paths, are the datagrams an op carries and the socket's
// counters.
type allocFixture struct {
	op    func()
	bytes int
	pkts  int
	stats func() transport.UDPStats
}

// benchFixture times b.N ops of fx with allocations reported, plus pkts/op
// and datagrams/syscall — how many datagrams each sendmmsg / recvmmsg of the
// timed section moved — on the datagram paths.
func benchFixture(b *testing.B, fx allocFixture) {
	b.SetBytes(int64(fx.bytes))
	b.ReportAllocs()
	var before transport.UDPStats
	if fx.stats != nil {
		before = fx.stats()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.op()
	}
	b.StopTimer()
	if fx.pkts > 0 {
		b.ReportMetric(float64(fx.pkts), "pkts/op")
	}
	if fx.stats != nil {
		after := fx.stats()
		b.ReportMetric(float64(after.Datagrams-before.Datagrams)/float64(after.Syscalls-before.Syscalls), "datagrams/syscall")
	}
}

// datagramSendFixture is the zero-copy encode contract: the send path alone
// — split, encode into the reusable arena, sendmmsg of segmented messages
// (iovecs and control messages live on the batcher) — performs zero
// steady-state allocations. Datagrams land on a raw-drain sink that reads
// and discards without decoding (Read, not ReadFromUDP, which would allocate
// a *UDPAddr per datagram and pollute the count).
func datagramSendFixture(tb testing.TB, codec transport.Codec) allocFixture {
	grad := randGrads(19, 1, gateDim)[0]
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sink.Close() })
	go func() {
		buf := make([]byte, 65536)
		for {
			if _, err := sink.Read(buf); err != nil {
				return
			}
		}
	}()
	send, err := transport.DialUDP(sink.LocalAddr().String(), codec, transport.DefaultMTU, 0, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { send.Close() })
	msg := &transport.GradientMsg{Worker: 1, Grad: grad}
	op := func() {
		if err := send.SendGradient(msg); err != nil {
			tb.Fatal(err)
		}
		msg.Step++
	}
	op() // warm the arena
	return allocFixture{op: op, bytes: len(grad) * 8, pkts: codec.PacketsPerTransfer(len(grad), transport.DefaultMTU), stats: send.Stats}
}

// datagramRecvFixture is the receive half of the same contract: a paced
// sender on its own goroutine, as a cluster worker is, writes one transfer
// per op, and the receive path takes it with zero steady-state allocations.
// Without modelInto it is a RecvPacket loop — recvmmsg, the segment walk,
// decode into the receiver's one packet; with it, the same loop offering
// every packet to a ModelCollector, which assembles the transfer as a model
// broadcast in a replica-sized vector, as a UDP worker does.
func datagramRecvFixture(tb testing.TB, codec transport.Codec, modelInto bool) allocFixture {
	grad := randGrads(20, 1, gateDim)[0]
	pkts := codec.PacketsPerTransfer(len(grad), transport.DefaultMTU)
	recv, err := transport.ListenUDP("127.0.0.1:0", codec, transport.DropGradient, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { recv.Close() })
	send, err := transport.DialUDP(recv.Addr(), codec, transport.DefaultMTU, 0, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { send.Close() })
	send.SetPacing(128<<10, time.Millisecond)
	msg := &transport.GradientMsg{Worker: 1, Grad: grad}
	take := func(int) error {
		for got := 0; got < pkts; got++ {
			if _, err := recv.RecvPacket(time.Second); err != nil {
				return fmt.Errorf("after %d of %d packets: %w", got, pkts, err)
			}
		}
		return nil
	}
	if modelInto {
		msg.Worker = transport.ModelWorkerID
		col := transport.NewModelCollector(transport.ModelCollectorConfig{Dim: len(grad), Codec: codec})
		store := tensor.NewVector(len(grad))
		take = func(step int) error {
			for {
				if ev := col.Settled(); ev != nil {
					if !ev.Complete || ev.Step != step || &ev.Params[0] != &store[0] {
						return fmt.Errorf("broadcast %d settled as step %d (complete %v) outside the store", step, ev.Step, ev.Complete)
					}
					return nil
				}
				pkt, err := recv.RecvPacket(10 * time.Second)
				if err != nil {
					return err
				}
				col.Offer(pkt, store)
			}
		}
	}
	steps, sendErr := make(chan int), make(chan error, 1)
	go func() {
		defer close(sendErr)
		for msg.Step = range steps {
			if err := send.SendGradient(msg); err != nil {
				sendErr <- err
				return
			}
		}
	}()
	tb.Cleanup(func() { close(steps); <-sendErr })
	step := 0
	op := func() {
		steps <- step
		if err := take(step); err != nil {
			select {
			case err = <-sendErr:
			default:
			}
			tb.Fatal(err)
		}
		step++
	}
	op() // warm the sender's arena and the receive path's state
	return allocFixture{op: op, bytes: len(grad) * 8, pkts: pkts, stats: recv.Stats}
}

// reassembleFixture is what the server's reassembler costs per gradient: one
// transfer offered packet by packet, in memory, allocates its partial, its
// vector, its d/64-word arrival bitmap and the message it completes as.
func reassembleFixture(tb testing.TB) allocFixture {
	grad := randGrads(23, 1, gateDim)[0]
	pkts := transport.Codec{Float32: true}.Split(&transport.GradientMsg{Worker: 1, Grad: grad}, transport.DefaultMTU)
	asm := transport.NewReassembler(transport.DropGradient, nil)
	step := 0
	return allocFixture{op: func() {
		var done bool
		for j := range pkts {
			pkts[j].Step = step
			_, done = asm.Offer(&pkts[j])
		}
		if !done {
			tb.Fatalf("transfer %d did not complete", step)
		}
		step++
	}, bytes: len(grad) * 8}
}

// tcpSendFixture is the streaming contract of the reliable path's send:
// SendGradient writes the frame header and the gradient's own memory to a
// raw draining sink, allocating nothing.
func tcpSendFixture(tb testing.TB) allocFixture {
	msg := &transport.GradientMsg{Worker: 1, Grad: randGrads(21, 1, gateDim)[0]}
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sink.Close() })
	go func() {
		conn, err := sink.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 65536)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	send, err := transport.DialTCP(sink.Addr().String(), transport.Codec{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { send.Close() })
	op := func() {
		if err := send.SendGradient(msg); err != nil {
			tb.Fatal(err)
		}
	}
	op() // warm the poller's iovec cache
	return allocFixture{op: op, bytes: len(msg.Grad) * 8}
}

// tcpRecvFixture is the receive side against a sender streaming frames
// until the receiver hangs up. Path "recv": RecvGradient allocates the
// message and its vector and nothing else. "recv-into": RecvGradientInto
// takes each gradient into one row the caller keeps, as a TCP cluster's
// reader does, and allocates nothing. "recv-model-into": RecvModel takes a
// broadcast into a replica's parameter store and allocates nothing. TCP flow
// control is the only hand-off: a channel per transfer would add the
// parked-goroutine records the runtime reallocates after each GC cycle to
// the count.
func tcpRecvFixture(tb testing.TB, path string) allocFixture {
	grad := randGrads(21, 1, gateDim)[0]
	msg := &transport.GradientMsg{Worker: 1, Grad: grad}
	send := func(c *transport.TCPConn) error { return c.SendGradient(msg) }
	var transfer func(c *transport.TCPConn) error
	switch path {
	case "recv":
		transfer = func(c *transport.TCPConn) error {
			got, err := c.RecvGradient()
			if err == nil && got.Grad.Dim() != len(grad) {
				err = fmt.Errorf("received %d coordinates", got.Grad.Dim())
			}
			return err
		}
	case "recv-into":
		var got transport.GradientMsg
		row := tensor.NewVector(len(grad))
		dst := func(int) tensor.Vector { return row }
		transfer = func(c *transport.TCPConn) error { return c.RecvGradientInto(&got, dst) }
	case "recv-model-into":
		coords, store := transport.Codec{}.WireCoords(grad, new([]byte)), tensor.NewVector(len(grad))
		send = func(c *transport.TCPConn) error { return c.SendModelCoords(1, coords) }
		transfer = func(c *transport.TCPConn) error { _, err := c.RecvModel(store); return err }
	}
	ln, err := transport.ListenTCP("127.0.0.1:0", transport.Codec{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	sender, err := transport.DialTCP(ln.Addr(), transport.Codec{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sender.Close() })
	recv, err := ln.Accept()
	if err != nil {
		tb.Fatal(err)
	}
	recv.SetExpectDim(len(grad))
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for send(sender) == nil {
		}
	}()
	tb.Cleanup(func() { recv.Close(); <-sent })
	op := func() {
		if err := transfer(recv); err != nil {
			tb.Fatal(err)
		}
	}
	op()
	// At the default GOGC 1.6 MB an op is a GC cycle every other op on this
	// small heap, and each cycle costs the process a few runtime-internal
	// allocations (package unique's map sweep, via net/netip) — enough to
	// read as a third alloc/op now and then.
	gcPercent := debug.SetGCPercent(2000)
	tb.Cleanup(func() { debug.SetGCPercent(gcPercent) })
	return allocFixture{op: op, bytes: len(grad) * 8}
}

// nnGradientFixture is the worker step of model, whose samples are in
// values wide, on a batch of random samples, after one call has sized the
// scratch: through the borrowed view nothing is allocated; Gradient adds its
// caller-owned copy and nothing else.
func nnGradientFixture(tb testing.TB, model *nn.Network, in, batch int, view bool) allocFixture {
	rng := rand.New(rand.NewSource(22))
	x, y := tensor.NewMatrix(batch, in), make([]int, batch)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.Intn(10)
	}
	step := model.Gradient
	if view {
		step = model.GradientView
	}
	var sink float64
	op := func() {
		loss, grad := step(x, y)
		sink += loss + grad[0]
	}
	op()
	return allocFixture{op: op}
}

// mlpGradientFixture is the worker step on the benchmark workloads' model,
// d = 101,770, at their batch of 4; cnnGradientFixture is the Table-1 CNN's
// at a batch of 2.
func mlpGradientFixture(tb testing.TB, view bool) allocFixture {
	return nnGradientFixture(tb, nn.NewMLP(784, []int{128}, 10, rand.New(rand.NewSource(22))), 784, 4, view)
}

func cnnGradientFixture(tb testing.TB) allocFixture {
	return nnGradientFixture(tb, nn.NewCIFARCNN(rand.New(rand.NewSource(22))), 32*32*3, 2, true)
}

func BenchmarkTransport_SendAllocs(b *testing.B) {
	benchFixture(b, datagramSendFixture(b, transport.Codec{Float32: true}))
}

func BenchmarkTransport_RecvAllocs(b *testing.B) {
	codec := transport.Codec{Float32: true}
	b.Run("packets", func(b *testing.B) { benchFixture(b, datagramRecvFixture(b, codec, false)) })
	b.Run("model-into", func(b *testing.B) { benchFixture(b, datagramRecvFixture(b, codec, true)) })
}

func BenchmarkTransport_ReassembleAllocs(b *testing.B) { benchFixture(b, reassembleFixture(b)) }

func BenchmarkTransport_TCPFrameAllocs(b *testing.B) {
	b.Run("send", func(b *testing.B) { benchFixture(b, tcpSendFixture(b)) })
	for _, path := range []string{"recv", "recv-into", "recv-model-into"} {
		b.Run(path, func(b *testing.B) { benchFixture(b, tcpRecvFixture(b, path)) })
	}
}

func BenchmarkNN_GradientAllocs(b *testing.B) {
	b.Run("view", func(b *testing.B) { benchFixture(b, mlpGradientFixture(b, true)) })
	b.Run("copy", func(b *testing.B) { benchFixture(b, mlpGradientFixture(b, false)) })
	b.Run("view-cnn", func(b *testing.B) { benchFixture(b, cnnGradientFixture(b)) })
}

// TestSteadyStateAllocGates holds every fixture above to its allocation
// bounds, measured as `go test -bench -benchtime=10x` measures its
// benchmark: after the fixture's warm-up, the mallocs and bytes of ten ops,
// integer-divided per op. The collector is held off while they run, so a GC
// cycle's own runtime allocations (under load, a fifth alloc/op on the
// reassembler about one run in forty) are not charged to the path. The
// datagram send and receive paths are held on both wire codecs.
func TestSteadyStateAllocGates(t *testing.T) {
	const runs, unbounded = 10, math.MaxUint64
	f32, f64 := transport.Codec{Float32: true}, transport.Codec{}
	for _, g := range []struct {
		name                 string
		fixture              func(testing.TB) allocFixture
		minAllocs, maxAllocs uint64
		maxBytes             uint64
	}{
		{"Transport_SendAllocs/f32", func(tb testing.TB) allocFixture { return datagramSendFixture(tb, f32) }, 0, 0, unbounded},
		{"Transport_SendAllocs/f64", func(tb testing.TB) allocFixture { return datagramSendFixture(tb, f64) }, 0, 0, unbounded},
		{"Transport_RecvAllocs/packets/f32", func(tb testing.TB) allocFixture { return datagramRecvFixture(tb, f32, false) }, 0, 0, unbounded},
		{"Transport_RecvAllocs/packets/f64", func(tb testing.TB) allocFixture { return datagramRecvFixture(tb, f64, false) }, 0, 0, unbounded},
		{"Transport_RecvAllocs/model-into/f32", func(tb testing.TB) allocFixture { return datagramRecvFixture(tb, f32, true) }, 0, 0, unbounded},
		{"Transport_RecvAllocs/model-into/f64", func(tb testing.TB) allocFixture { return datagramRecvFixture(tb, f64, true) }, 0, 0, unbounded},
		// The partial, its vector, its bitmap and the message: 8·d + d/8 B,
		// rounded up to whole pages, and two small structs.
		{"Transport_ReassembleAllocs", reassembleFixture, 0, 4, 8*gateDim + gateDim/8 + 8192 + 512},
		{"Transport_TCPFrameAllocs/send", tcpSendFixture, 0, 0, unbounded},
		// The message and its vector: 8·d B rounded up to whole pages, and
		// the message struct.
		{"Transport_TCPFrameAllocs/recv", func(tb testing.TB) allocFixture { return tcpRecvFixture(tb, "recv") }, 0, 2, 8*gateDim + 8192 + 256},
		{"Transport_TCPFrameAllocs/recv-into", func(tb testing.TB) allocFixture { return tcpRecvFixture(tb, "recv-into") }, 0, 0, unbounded},
		{"Transport_TCPFrameAllocs/recv-model-into", func(tb testing.TB) allocFixture { return tcpRecvFixture(tb, "recv-model-into") }, 0, 0, unbounded},
		{"NN_GradientAllocs/view", func(tb testing.TB) allocFixture { return mlpGradientFixture(tb, true) }, 0, 0, unbounded},
		// Gradient's copy of d = 101,770 parameters, 8·d B rounded up to
		// whole pages, and nothing else.
		{"NN_GradientAllocs/copy", func(tb testing.TB) allocFixture { return mlpGradientFixture(tb, false) }, 1, 1, 8*101_770 + 8192 + 256},
		{"NN_GradientAllocs/view-cnn", cnnGradientFixture, 0, 0, unbounded},
	} {
		t.Run(g.name, func(t *testing.T) {
			fx := g.fixture(t)
			var before, after runtime.MemStats
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				fx.op()
			}
			runtime.ReadMemStats(&after)
			allocs, bytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
			t.Logf("%d allocs/op, %d B/op", allocs, bytes)
			if allocs < g.minAllocs || allocs > g.maxAllocs || bytes > g.maxBytes {
				t.Fatalf("%d allocs/op and %d B/op; want %d to %d allocs/op and at most %d B/op",
					allocs, bytes, g.minAllocs, g.maxAllocs, g.maxBytes)
			}
		})
	}
}

// BenchmarkAblation_SelectionSize quantifies the appendix's slowdown claim:
// convergence goes as O(1/√m), so Krum (m=1) needs more steps than
// Multi-Krum at the maximal m = n−f−2 to reach the same target. Reported as
// steps-to-target for each selection size.
func BenchmarkAblation_SelectionSize(b *testing.B) {
	// Comparison on the aggregation statistics: the variance of the
	// aggregate around the honest mean shrinks as 1/m (the O(1/√m)
	// convergence law in squared form).
	rng := rand.New(rand.NewSource(14))
	n, f, d := 19, 4, 512
	honest := make([]tensor.Vector, n)
	for i := range honest {
		v := tensor.NewVector(d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		honest[i] = v
	}
	for _, m := range []int{1, 4, 13} {
		m := m
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			rule := &gar.MultiKrum{NumByzantine: f, M: m}
			var variance float64
			for i := 0; i < b.N; i++ {
				out, err := gar.Aggregate(rule, honest)
				if err != nil {
					b.Fatal(err)
				}
				variance = out.SquaredNorm() / float64(d)
			}
			b.ReportMetric(variance, "aggregate_variance")
		})
	}
}
