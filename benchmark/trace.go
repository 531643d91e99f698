package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/opt"
	"aggregathor/internal/tensor"
)

// Span names. A round span is the parent of every span recorded while its
// Step call runs; spans of one round share the round index.
const (
	spanRound  = "round"
	spanGAR    = "gar.aggregate"
	spanOpt    = "opt.step"
	spanSample = "data.sample"
	spanStart  = "cluster.start"
	spanClose  = "cluster.close"
)

type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent"`
	Round   int    `json:"round"`
}

// recorder keeps spans in memory until the run ends. Sampler decorators run
// on the cluster's worker goroutines, hence the lock; round is set by the
// driver goroutine before each Step (-1 outside the round loop).
type recorder struct {
	epoch time.Time
	round atomic.Int64

	mu        sync.Mutex
	spans     []span
	garErrors int
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.round.Store(-1)
	return r
}

func (r *recorder) add(name, parent string, start, end time.Time) {
	s := span{Name: name, StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
		Parent: parent, Round: int(r.round.Load())}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// child records a span under the current round.
func (r *recorder) child(name string, start time.Time) {
	r.add(name, spanRound, start, time.Now())
}

func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfNS is a span's duration minus the part of it its children cover,
// counting overlapping children (19 concurrent samplers) once.
func selfNS(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64
	end = parent.StartNS
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		covered += x[1] - max(x[0], end)
		end = x[1]
	}
	return parent.EndNS - parent.StartNS - covered
}

// tracedGAR times the aggregation the cluster asks for. It forwards the
// workspace path, so the rule runs the same kernels as undecorated.
type tracedGAR struct {
	inner gar.GAR
	rec   *recorder
}

func (g *tracedGAR) Name() string { return g.inner.Name() }

func (g *tracedGAR) Aggregate(grads []tensor.Vector) (tensor.Vector, error) {
	return g.AggregateInto(nil, grads)
}

func (g *tracedGAR) AggregateInto(ws *gar.Workspace, grads []tensor.Vector) (tensor.Vector, error) {
	start := time.Now()
	out, err := gar.AggregateInto(ws, g.inner, grads)
	g.rec.child(spanGAR, start)
	if err != nil {
		g.rec.mu.Lock()
		g.rec.garErrors++
		g.rec.mu.Unlock()
	}
	return out, err
}

// tracedByzGAR additionally forwards the declared-f bound, which the
// clusters read for their MinWorkers and below-bound checks. It is a
// separate type so that a rule without the bound (average) stays without.
type tracedByzGAR struct {
	*tracedGAR
	gar.ByzantineInfo
}

func traceGAR(rec *recorder, inner gar.GAR) gar.GAR {
	t := &tracedGAR{inner: inner, rec: rec}
	if info, ok := inner.(gar.ByzantineInfo); ok {
		return &tracedByzGAR{tracedGAR: t, ByzantineInfo: info}
	}
	return t
}

type tracedOptimizer struct {
	opt.Optimizer
	rec *recorder
}

func (o *tracedOptimizer) Step(step int, params, grad tensor.Vector) {
	start := time.Now()
	o.Optimizer.Step(step, params, grad)
	o.rec.child(spanOpt, start)
}

type tracedSampler struct {
	inner data.Sampler
	rec   *recorder
}

func (s *tracedSampler) Sample(n int) (*tensor.Matrix, []int) {
	start := time.Now()
	x, y := s.inner.Sample(n)
	s.rec.child(spanSample, start)
	return x, y
}
