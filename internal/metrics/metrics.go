// Package metrics implements the paper's evaluation instruments: the
// throughput meter (gradients received per second at the aggregator), the
// top-1 cross-accuracy series against both time and model updates, and the
// per-epoch latency breakdown separating aggregation time from
// computation+communication time (Figure 4).
package metrics

import "time"

// Point is one sample of a time series: a simulated timestamp, the model
// update index, and the measured value.
type Point struct {
	Time  time.Duration
	Step  int
	Value float64
}

// Series is an append-only sequence of points, the unit of figure data in
// this reproduction.
type Series struct {
	Points []Point
}

// Add appends a point.
func (s *Series) Add(t time.Duration, step int, v float64) {
	s.Points = append(s.Points, Point{Time: t, Step: step, Value: v})
}

// Last returns the final point; ok is false for an empty series.
func (s *Series) Last() (Point, bool) {
	if len(s.Points) == 0 {
		return Point{}, false
	}
	return s.Points[len(s.Points)-1], true
}

// TimeToValue returns the first simulated time at which the series reaches
// v; ok is false if it never does. This is the paper's "time to reach X% of
// final accuracy" readout.
func (s *Series) TimeToValue(v float64) (time.Duration, bool) {
	for _, p := range s.Points {
		if p.Value >= v {
			return p.Time, true
		}
	}
	return 0, false
}

// StepToValue returns the first model-update index reaching v.
func (s *Series) StepToValue(v float64) (int, bool) {
	for _, p := range s.Points {
		if p.Value >= v {
			return p.Step, true
		}
	}
	return 0, false
}

// Breakdown is the Figure-4 latency decomposition for one configuration.
type Breakdown struct {
	Name string
	// ComputeComm is gradient computation + transfer time per epoch.
	ComputeComm time.Duration
	// Aggregation is the GAR execution time per epoch.
	Aggregation time.Duration
}

// Total returns the full per-epoch latency.
func (b Breakdown) Total() time.Duration { return b.ComputeComm + b.Aggregation }

// AggregationShare returns the fraction of the epoch spent aggregating —
// the paper reports 35% (Median), 27% (Multi-Krum), 52% (Bulyan).
func (b Breakdown) AggregationShare() float64 {
	total := b.Total()
	if total == 0 {
		return 0
	}
	return float64(b.Aggregation) / float64(total)
}

// Throughput accumulates the aggregator-side gradient arrival rate.
type Throughput struct {
	gradients int
	batches   int
	elapsed   time.Duration
}

// Observe records one aggregation round: n gradients arrived and the
// simulated round duration.
func (t *Throughput) Observe(gradients int, roundTime time.Duration) {
	t.gradients += gradients
	t.batches++
	t.elapsed += roundTime
}

// GradientsPerSecond returns the paper's throughput metric: total gradients
// received per simulated second.
func (t *Throughput) GradientsPerSecond() float64 {
	if t.elapsed == 0 {
		return 0
	}
	return float64(t.gradients) / t.elapsed.Seconds()
}

// BatchesPerSecond returns model updates per simulated second (the Figure-5
// y-axis).
func (t *Throughput) BatchesPerSecond() float64 {
	if t.elapsed == 0 {
		return 0
	}
	return float64(t.batches) / t.elapsed.Seconds()
}
