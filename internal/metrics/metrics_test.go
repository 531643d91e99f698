package metrics

import (
	"testing"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if _, ok := s.Last(); ok {
		t.Fatal("empty series must have no last point")
	}
	s.Add(time.Second, 1, 0.3)
	s.Add(2*time.Second, 2, 0.5)
	if len(s.Points) != 2 {
		t.Fatalf("len %d", len(s.Points))
	}
	last, ok := s.Last()
	if !ok || last.Value != 0.5 || last.Step != 2 {
		t.Fatalf("last %+v", last)
	}
}

func TestTimeToValue(t *testing.T) {
	var s Series
	s.Add(time.Second, 1, 0.2)
	s.Add(2*time.Second, 2, 0.4)
	s.Add(3*time.Second, 3, 0.6)
	tt, ok := s.TimeToValue(0.4)
	if !ok || tt != 2*time.Second {
		t.Fatalf("TimeToValue(0.4) = %v, %v", tt, ok)
	}
	if _, ok := s.TimeToValue(0.9); ok {
		t.Fatal("unreachable value must report !ok")
	}
	st, ok := s.StepToValue(0.6)
	if !ok || st != 3 {
		t.Fatalf("StepToValue = %d, %v", st, ok)
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{Name: "bulyan", ComputeComm: 480 * time.Millisecond, Aggregation: 520 * time.Millisecond}
	if b.Total() != time.Second {
		t.Fatalf("total %v", b.Total())
	}
	if share := b.AggregationShare(); share != 0.52 {
		t.Fatalf("share %v, want 0.52", share)
	}
	var zero Breakdown
	if zero.AggregationShare() != 0 {
		t.Fatal("zero breakdown share must be 0")
	}
}

func TestThroughput(t *testing.T) {
	var th Throughput
	if th.GradientsPerSecond() != 0 || th.BatchesPerSecond() != 0 {
		t.Fatal("empty throughput must be 0")
	}
	th.Observe(19, time.Second)
	th.Observe(19, time.Second)
	if got := th.GradientsPerSecond(); got != 19 {
		t.Fatalf("gradients/s %v, want 19", got)
	}
	if got := th.BatchesPerSecond(); got != 1 {
		t.Fatalf("batches/s %v, want 1", got)
	}
}
