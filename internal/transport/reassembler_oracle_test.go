package transport

import (
	"math"

	"aggregathor/internal/tensor"
)

// boolReassembler is the reassembler as it was before the arrival bitmap: one
// bool per coordinate, set and counted a coordinate at a time. It is the
// oracle FuzzReassembler holds Reassembler to — validation, eviction on
// conflicting metadata, the missing count, the pending and eviction counts
// and FlushFill's fill order bit for bit — so it keeps exactly the parts
// those compare.
type boolReassembler struct {
	maxDim    int
	evictions int
	pending   map[[2]int]*boolPartial
}

type boolPartial struct {
	grad     tensor.Vector
	received []bool
	missing  int
	loss     float64
}

func newBoolReassembler(maxDim int) *boolReassembler {
	return &boolReassembler{maxDim: maxDim, pending: map[[2]int]*boolPartial{}}
}

func (r *boolReassembler) Offer(p *Packet) (*GradientMsg, bool) {
	if p.Dim < 0 || p.Dim > r.maxDim || p.Offset < 0 || p.Offset+len(p.Coords) > p.Dim {
		return nil, false
	}
	key := [2]int{p.Worker, p.Step}
	part, ok := r.pending[key]
	if ok && (p.Dim != len(part.received) || math.Float64bits(p.Loss) != math.Float64bits(part.loss)) {
		ok = false
		r.evictions++
	}
	if !ok {
		part = &boolPartial{grad: tensor.NewVector(p.Dim), received: make([]bool, p.Dim), missing: p.Dim, loss: p.Loss}
		r.pending[key] = part
	}
	for i, x := range p.Coords {
		idx := p.Offset + i
		if !part.received[idx] {
			part.received[idx] = true
			part.missing--
		}
		part.grad[idx] = x
	}
	if part.missing > 0 {
		return nil, false
	}
	delete(r.pending, key)
	return &GradientMsg{Worker: p.Worker, Step: p.Step, Loss: part.loss, Grad: part.grad}, true
}

func (r *boolReassembler) Missing(worker, step int) (int, bool) {
	part, ok := r.pending[[2]int{worker, step}]
	if !ok {
		return 0, false
	}
	return part.missing, true
}

func (r *boolReassembler) FlushFill(worker, step int, fill func(coord int) float64) (*GradientMsg, bool) {
	key := [2]int{worker, step}
	part, ok := r.pending[key]
	if !ok {
		return nil, false
	}
	delete(r.pending, key)
	for i, got := range part.received {
		if !got {
			part.grad[i] = fill(i)
		}
	}
	return &GradientMsg{Worker: worker, Step: step, Loss: part.loss, Grad: part.grad}, true
}

// missing is the Reassembler's side of boolReassembler.Missing: how many
// coordinates of the (worker, step) partial have not arrived; ok=false when
// nothing is pending under that key.
func (r *Reassembler) missing(worker, step int) (n int, ok bool) {
	part, ok := r.pending[[2]int{worker, step}]
	if !ok {
		return 0, false
	}
	return part.missing, true
}
