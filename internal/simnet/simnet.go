// Package simnet is the discrete-event cluster cost model standing in for
// the paper's Grid5000 testbed: 20 nodes (2× Intel Xeon E5-2630, 10 Gbps
// Ethernet). It assigns simulated durations to the three phases of a
// synchronous parameter-server round — worker gradient computation, gradient
// transfer over a shared link (TCP with Mathis-model congestion collapse
// under loss, or lossy UDP at full rate), and server-side aggregation — and
// advances a simulated clock.
//
// Aggregation cost is *measured*, not modelled: the configured GAR really
// runs on vectors of the experiment's dimension and its wall time feeds the
// clock (see MeasureAggregation). Compute and network are analytic, so
// experiments are fast and deterministic while the relative GAR overheads —
// the quantity the paper reports — are real.
package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"aggregathor/internal/gar"
	"aggregathor/internal/tensor"
)

// Protocol selects the transport cost model.
type Protocol int

const (
	// TCP is the reliable default (gRPC-like): full bandwidth at zero
	// loss, Mathis-model collapse under packet drops.
	TCP Protocol = iota
	// UDP is the lossyMPI transport: full bandwidth regardless of loss
	// (lost packets are simply gone; the data-plane effect is modelled by
	// package transport).
	UDP
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// wireBytesPerCoord is the modelled wire size of one coordinate: float32, the
// TensorFlow default the paper's deployments ship.
const wireBytesPerCoord = 4

// Config is the cluster cost model. Workers are homogeneous and each computes
// one mini-batch gradient per step.
type Config struct {
	// Workers is n, the number of worker nodes.
	Workers int
	// Dim is the gradient dimension d used for transfer and aggregation
	// cost.
	Dim int
	// FlopsPerSample is the forward+backward cost of one training sample.
	FlopsPerSample float64
	// WorkerFlops is the effective per-node FLOP/s (compute throughput).
	WorkerFlops float64
	// LinkBandwidth is the shared network bandwidth in bits/s.
	LinkBandwidth float64
	// RTT is the round-trip time used by the TCP loss model.
	RTT time.Duration
	// Protocol selects TCP or UDP costing.
	Protocol Protocol
	// DropRate is the packet loss probability in [0, 1).
	DropRate float64
	// AggTime is the per-round aggregation duration (use
	// MeasureAggregation for a real measurement).
	AggTime time.Duration
	// DecodeTime is additional per-round server work (Draco's
	// linear-in-n decode), zero otherwise.
	DecodeTime time.Duration
}

// Grid5000 returns the paper's testbed defaults for n workers and gradient
// dimension d: 10 Gbps shared Ethernet, float32 wire format, ~50 GFLOP/s
// effective per node.
func Grid5000(workers, dim int) Config {
	return Config{
		Workers:        workers,
		Dim:            dim,
		FlopsPerSample: 2e8, // Table-1 CNN forward+backward, per sample
		WorkerFlops:    50e9,
		LinkBandwidth:  10e9,
		RTT:            200 * time.Microsecond,
		Protocol:       TCP,
	}
}

// Round is the simulated duration of one synchronous training step.
type Round struct {
	// Compute is the workers' gradient computation time.
	Compute time.Duration
	// Transfer is the model broadcast plus gradient collection time on
	// the shared link.
	Transfer time.Duration
	// Aggregate is the server-side GAR (+ decode) time.
	Aggregate time.Duration
}

// Total returns the full round duration.
func (r Round) Total() time.Duration { return r.Compute + r.Transfer + r.Aggregate }

// ComputeTime returns one worker's gradient computation time for a
// mini-batch.
func (c *Config) ComputeTime(batch int) time.Duration {
	if c.WorkerFlops <= 0 {
		return 0
	}
	secs := c.FlopsPerSample * float64(batch) / c.WorkerFlops
	return time.Duration(secs * float64(time.Second))
}

// EffectiveBandwidth returns the usable shared-link bandwidth in bits/s
// under the configured protocol and drop rate. TCP follows the Mathis model
// (throughput ≤ MSS·C / (RTT·√p)); UDP keeps the raw link rate but delivers
// only (1-p) of the packets — the paper's speed argument for lossyMPI.
func (c *Config) EffectiveBandwidth() float64 {
	if c.Protocol == UDP || c.DropRate <= 0 {
		return c.LinkBandwidth
	}
	const (
		mssBits = 1460 * 8
		mathisC = 1.22
	)
	rttSecs := c.RTT.Seconds()
	if rttSecs <= 0 {
		rttSecs = 100e-6
	}
	mathis := mssBits * mathisC / (rttSecs * math.Sqrt(c.DropRate))
	return math.Min(c.LinkBandwidth, mathis)
}

// TransferTime returns the shared-link time to broadcast the model to n
// workers and collect their n gradients of dimension Dim.
func (c *Config) TransferTime() time.Duration {
	perVector := float64(c.Dim * wireBytesPerCoord * 8)
	totalBits := perVector * float64(c.Workers) * 2
	bw := c.EffectiveBandwidth()
	if bw <= 0 {
		return 0
	}
	secs := totalBits / bw
	// Each round pays at least one RTT of protocol latency on TCP.
	if c.Protocol == TCP {
		secs += c.RTT.Seconds()
	}
	return time.Duration(secs * float64(time.Second))
}

// SimulateRound returns the cost of one synchronous step with the given
// mini-batch size: worker compute + shared transfer + aggregation.
func (c *Config) SimulateRound(batch int) Round {
	return Round{
		Compute:   c.ComputeTime(batch),
		Transfer:  c.TransferTime(),
		Aggregate: c.AggTime + c.DecodeTime,
	}
}

// Clock is the simulated time accumulator for one experiment.
type Clock struct {
	now time.Duration
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d (negative d panics).
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic("simnet: negative clock advance")
	}
	c.now += d
}

// MeasureAggregation times the GAR on synthetic worker gradients of the
// given dimension: rounds executions on freshly drawn Gaussian vectors, the
// median wall time. This is the "measured aggregation" input to Config.
func MeasureAggregation(g gar.GAR, n, dim, rounds int, seed int64) (time.Duration, error) {
	if rounds < 1 {
		rounds = 1
	}
	rng := rand.New(rand.NewSource(seed))
	grads := make([]tensor.Vector, n)
	for i := range grads {
		v := tensor.NewVector(dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		grads[i] = v
	}
	times := make([]float64, rounds)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if _, err := gar.Aggregate(g, grads); err != nil {
			return 0, fmt.Errorf("simnet: measuring %s: %w", g.Name(), err)
		}
		times[r] = time.Since(start).Seconds()
	}
	med := tensor.Median(times)
	return time.Duration(med * float64(time.Second)), nil
}

// ModelAggregation returns an analytic aggregation cost for fast experiments
// and huge dimensions (Figure 5b's 25.5M-parameter ResNet50). Each rule's
// asymptotic shape follows its algorithm; the constants are calibrated so
// that at the paper's evaluation point (n=19, f=4, d=1.75M, b=250 on the
// Grid5000 profile) the headline numbers reproduce: MULTI-KRUM ≈ +19% and
// BULYAN ≈ +43% per-round overhead over the vanilla baseline, the framework
// Average ≈ +7%, and Draco's decode sits an order of magnitude above the
// TensorFlow-based systems independent of f. Real Go-kernel measurements
// (MeasureAggregation) have different constants — notably coordinate-wise
// median is slower than MULTI-KRUM in pure Go — which is recorded in
// BENCH_aggregation.json (make bench-json).
func ModelAggregation(name string, n, f, dim int) time.Duration {
	nf, df := float64(n), float64(dim)
	m := float64(n - f - 2)
	if m < 1 {
		m = 1
	}
	var secs float64
	switch name {
	case "average", "selective-average":
		secs = 2.1e-9 * nf * df
	case "median", "trimmed-mean":
		secs = 2.5e-9 * nf * math.Log2(math.Max(2, nf)) * df
	case "krum", "multi-krum":
		// O(n²d) distances + averaging the m selected gradients: the
		// second term is why a larger declared f (smaller m) buys a
		// slightly higher throughput (§4.2).
		secs = 2.4e-10*nf*nf*df*1.5 + 2.1e-9*m*df
	case "bulyan":
		theta := float64(n - 2*f)
		if theta < 1 {
			theta = 1
		}
		// Distances once (the reuse optimisation), then θ rescoring
		// iterations and the coordinate-wise median/average pass.
		secs = 2.4e-10*nf*nf*df*1.5 + 7.9e-10*theta*nf*df
	case "draco":
		// Majority-vote decode, linear in n·d with a large constant
		// ("the encoding and decoding time of Draco can be several
		// times larger than the computation time of ordinary SGD").
		secs = 1.66e-7 * nf * df
	default:
		secs = 2.1e-9 * nf * df
	}
	return time.Duration(secs * float64(time.Second))
}
