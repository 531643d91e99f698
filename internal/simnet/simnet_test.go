package simnet

import (
	"testing"
	"time"

	"aggregathor/internal/gar"
)

func TestComputeTimeScalesWithBatch(t *testing.T) {
	cfg := Grid5000(4, 1000)
	t1 := cfg.ComputeTime(10)
	t2 := cfg.ComputeTime(20)
	if t2 <= t1 {
		t.Fatalf("compute time must grow with batch: %v vs %v", t1, t2)
	}
	if t2 < t1*2-time.Nanosecond || t2 > t1*2+time.Nanosecond {
		t.Fatalf("compute time not linear in batch: %v vs 2x%v", t2, t1)
	}
}

func TestEffectiveBandwidthTCPNoLoss(t *testing.T) {
	cfg := Grid5000(4, 1000)
	if got := cfg.EffectiveBandwidth(); got != cfg.LinkBandwidth {
		t.Fatalf("no-loss TCP bandwidth %v, want link rate %v", got, cfg.LinkBandwidth)
	}
}

func TestEffectiveBandwidthTCPCollapsesUnderLoss(t *testing.T) {
	cfg := Grid5000(4, 1000)
	cfg.DropRate = 0.10
	lossy := cfg.EffectiveBandwidth()
	if lossy >= cfg.LinkBandwidth/10 {
		t.Fatalf("TCP at 10%% loss should collapse: got %v of %v", lossy, cfg.LinkBandwidth)
	}
	cfg.DropRate = 0.01
	milder := cfg.EffectiveBandwidth()
	if milder <= lossy {
		t.Fatal("lower loss must give higher TCP bandwidth")
	}
}

func TestEffectiveBandwidthUDPIgnoresLoss(t *testing.T) {
	cfg := Grid5000(4, 1000)
	cfg.Protocol = UDP
	cfg.DropRate = 0.10
	if got := cfg.EffectiveBandwidth(); got != cfg.LinkBandwidth {
		t.Fatalf("UDP bandwidth %v, want full link rate", got)
	}
}

// The Figure-8(b) mechanism: at 10% loss, a UDP round is much faster than a
// TCP round for the same payload.
func TestUDPRoundBeatsTCPUnderLoss(t *testing.T) {
	tcp := Grid5000(19, 1_750_000)
	tcp.DropRate = 0.10
	udp := tcp
	udp.Protocol = UDP
	tTCP := tcp.TransferTime()
	tUDP := udp.TransferTime()
	if tUDP*6 > tTCP {
		t.Fatalf("UDP should be >6x faster under 10%% loss: udp %v, tcp %v", tUDP, tTCP)
	}
}

func TestTransferTimeGrowsWithWorkersAndDim(t *testing.T) {
	small := Grid5000(4, 1000)
	bigN := Grid5000(16, 1000)
	bigD := Grid5000(4, 100000)
	if bigN.TransferTime() <= small.TransferTime() {
		t.Fatal("transfer must grow with workers")
	}
	if bigD.TransferTime() <= small.TransferTime() {
		t.Fatal("transfer must grow with dimension")
	}
}

func TestSimulateRoundComposition(t *testing.T) {
	cfg := Grid5000(8, 1_750_000)
	cfg.AggTime = 50 * time.Millisecond
	cfg.DecodeTime = 10 * time.Millisecond
	r := cfg.SimulateRound(100)
	if r.Aggregate != 60*time.Millisecond {
		t.Fatalf("aggregate %v, want 60ms", r.Aggregate)
	}
	if r.Total() != r.Compute+r.Transfer+r.Aggregate {
		t.Fatal("total must be the sum of phases")
	}
	if r.Compute <= 0 || r.Transfer <= 0 {
		t.Fatalf("degenerate round %+v", r)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("fresh clock must read 0")
	}
	c.Advance(time.Second)
	c.Advance(500 * time.Millisecond)
	if c.Now() != 1500*time.Millisecond {
		t.Fatalf("clock %v", c.Now())
	}
}

func TestClockNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var c Clock
	c.Advance(-time.Second)
}

func TestMeasureAggregation(t *testing.T) {
	g, err := gar.New("multi-krum", 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := MeasureAggregation(g, 7, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("measured duration %v", d)
	}
}

func TestMeasureAggregationPropagatesErrors(t *testing.T) {
	g, err := gar.New("bulyan", 4) // needs n >= 19
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureAggregation(g, 5, 100, 1); err == nil {
		t.Fatal("want error from undersized cluster")
	}
}

// The cost-model ordering matches the paper's Figure 4 at the evaluation
// scale: average < multi-krum < median < bulyan (their measured aggregation
// shares were 27% multi-krum, 35% median, 52% bulyan).
func TestModelAggregationOrdering(t *testing.T) {
	n, f, d := 19, 4, 1_750_000
	avg := ModelAggregation("average", n, f, d)
	med := ModelAggregation("median", n, f, d)
	mk := ModelAggregation("multi-krum", n, f, d)
	bl := ModelAggregation("bulyan", n, f, d)
	if !(avg < mk && mk < med && med < bl) {
		t.Fatalf("ordering violated: avg=%v mk=%v med=%v bulyan=%v", avg, mk, med, bl)
	}
	dr := ModelAggregation("draco", n, f, d)
	if dr < 5*bl {
		t.Fatalf("draco decode (%v) should dwarf bulyan aggregation (%v)", dr, bl)
	}
}

// The paper's headline calibration point: at n=19, f=4, d=1.75M, b=250,
// MULTI-KRUM costs ≈19% and BULYAN ≈43% over the no-aggregation baseline.
func TestModelAggregationHeadlineOverheads(t *testing.T) {
	n, f, d := 19, 4, 1_756_426
	base := Grid5000(n, d)
	round := base.SimulateRound(250)
	baseline := (round.Compute + round.Transfer).Seconds()
	mk := ModelAggregation("multi-krum", n, f, d).Seconds() / baseline
	bl := ModelAggregation("bulyan", n, f, d).Seconds() / baseline
	if mk < 0.12 || mk > 0.30 {
		t.Fatalf("multi-krum overhead %.3f, want ≈0.19", mk)
	}
	if bl < 0.30 || bl > 0.60 {
		t.Fatalf("bulyan overhead %.3f, want ≈0.43", bl)
	}
	if !(mk < bl) {
		t.Fatal("multi-krum must be cheaper than bulyan")
	}
}

// A larger declared f yields a (weakly) cheaper aggregation for both rules —
// the counter-intuitive throughput gain of §4.2.
func TestModelAggregationFBenefit(t *testing.T) {
	n, d := 19, 1_750_000
	if ModelAggregation("multi-krum", n, 4, d) > ModelAggregation("multi-krum", n, 1, d) {
		t.Fatal("multi-krum should not get more expensive with larger f")
	}
	if ModelAggregation("bulyan", n, 4, d) >= ModelAggregation("bulyan", n, 1, d) {
		t.Fatal("bulyan must get cheaper with larger f (fewer iterations)")
	}
}

func TestModelAggregationUnknownFallsBack(t *testing.T) {
	if ModelAggregation("mystery", 10, 1, 100) <= 0 {
		t.Fatal("fallback cost must be positive")
	}
}

func TestProtocolString(t *testing.T) {
	if TCP.String() != "tcp" || UDP.String() != "udp" {
		t.Fatal("protocol names")
	}
	if Protocol(7).String() != "Protocol(7)" {
		t.Fatal("unknown protocol formatting")
	}
}

// Figure 5(a) shape: with a costly GAR, adding workers eventually yields
// diminishing throughput relative to plain averaging.
func TestThroughputShapeGARGap(t *testing.T) {
	dim := 1_750_000
	batchesPerSec := func(n int, aggName string, f int) float64 {
		cfg := Grid5000(n, dim)
		cfg.AggTime = ModelAggregation(aggName, n, f, dim)
		r := cfg.SimulateRound(100)
		return float64(n) / r.Total().Seconds()
	}
	// At n=4 the GARs are close; at n=18 bulyan lags multi-krum lags
	// average.
	gapSmall := batchesPerSec(4, "average", 0) - batchesPerSec(4, "bulyan", 0)
	gapBig := batchesPerSec(18, "average", 0) - batchesPerSec(18, "bulyan", 0)
	if gapBig <= gapSmall {
		t.Fatalf("GAR gap must widen with workers: %v -> %v", gapSmall, gapBig)
	}
	if batchesPerSec(18, "multi-krum", 4) <= batchesPerSec(18, "bulyan", 2) {
		t.Fatal("multi-krum should outpace bulyan at scale")
	}
}

func TestGrid5000Defaults(t *testing.T) {
	cfg := Grid5000(19, 1_756_426)
	if cfg.Workers != 19 || cfg.Dim != 1_756_426 {
		t.Fatalf("shape fields %+v", cfg)
	}
	if cfg.LinkBandwidth != 10e9 {
		t.Fatal("testbed is 10 Gbps Ethernet")
	}
	if cfg.Protocol != TCP || cfg.DropRate != 0 {
		t.Fatal("default transport must be reliable TCP")
	}
}

func TestTransferTimeIncludesRTTOnTCP(t *testing.T) {
	tcp := Grid5000(1, 1)
	udp := tcp
	udp.Protocol = UDP
	// With a 1-coordinate payload the transfer is dominated by the
	// protocol latency: TCP pays an RTT, UDP does not.
	if tcp.TransferTime() <= udp.TransferTime() {
		t.Fatalf("TCP (%v) must pay RTT over UDP (%v)", tcp.TransferTime(), udp.TransferTime())
	}
}
