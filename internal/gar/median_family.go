package gar

import "aggregathor/internal/tensor"

// GeoMedian approximates the geometric median (the minimiser of the sum of
// Euclidean distances) with Weiszfeld iterations — the high-dimensional
// median underlying several of the related-work rules (Xie et al. 2018's
// geometric-median variant). It is weakly Byzantine-resilient for f < n/2.
//
// Gradients with non-finite coordinates are excluded before iterating (their
// distance is +Inf, so they carry no pull anyway but would poison the
// arithmetic).
type GeoMedian struct {
	// NumByzantine is the declared tolerance f (< n/2).
	NumByzantine int
}

const (
	// geoMedianMaxIter bounds the Weiszfeld iterations.
	geoMedianMaxIter = 50
	// geoMedianTol is the convergence threshold on iterate movement.
	geoMedianTol = 1e-9
)

// NewGeoMedian returns a geometric-median rule tolerating f Byzantine
// workers.
func NewGeoMedian(f int) *GeoMedian { return &GeoMedian{NumByzantine: f} }

// Name implements GAR.
func (g *GeoMedian) Name() string { return "geometric-median" }

// F implements ByzantineInfo.
func (g *GeoMedian) F() int { return g.NumByzantine }

// MinWorkers implements ByzantineInfo: n ≥ 2f+1.
func (g *GeoMedian) MinWorkers() int { return 2*g.NumByzantine + 1 }

// AggregateInto implements GAR: the Weiszfeld iterations alternate
// between the workspace's two iterate buffers and the finite-gradient filter
// reuses its list, so a warm aggregation allocates nothing.
func (g *GeoMedian) AggregateInto(ws *Workspace, grads []tensor.Vector) (tensor.Vector, error) {
	if err := checkUniform(grads); err != nil {
		return nil, err
	}
	if err := checkTolerance("geometric-median", "f", g.NumByzantine, g.MinWorkers(), len(grads)); err != nil {
		return nil, err
	}
	finite := ws.ensureFinite(len(grads))
	for _, v := range grads {
		if v.IsFinite() {
			finite = append(finite, v)
		}
	}
	d := grads[0].Dim()
	out := ws.ensureOut(d)
	if len(finite) == 0 {
		// Every vector is poisoned; a null update is the only safe
		// total answer.
		out.Zero()
		return out, nil
	}
	y, next := ws.ensureIter(d)
	tensor.MeanInto(y, finite)
	for iter := 0; iter < geoMedianMaxIter; iter++ {
		next.Zero()
		var wsum float64
		for _, x := range finite {
			dist := tensor.Distance(x, y)
			if dist < 1e-12 {
				// The iterate sits on a data point; Weiszfeld is
				// singular here and the point is already (near-)
				// optimal for our purposes.
				copy(out, x)
				return out, nil
			}
			w := 1 / dist
			next.Axpy(w, x)
			wsum += w
		}
		next.Scale(1 / wsum)
		moved := tensor.Distance(next, y)
		y, next = next, y
		if moved < geoMedianTol {
			break
		}
	}
	copy(out, y)
	return out, nil
}

// MeanAroundMedian is the "mean-around-median" rule of Xie et al. 2018: per
// coordinate, average the n−f values closest to the coordinate median.
// Weakly Byzantine-resilient for 2f < n.
type MeanAroundMedian struct {
	// NumByzantine is the declared tolerance f.
	NumByzantine int
}

// NewMeanAroundMedian returns the rule with tolerance f.
func NewMeanAroundMedian(f int) *MeanAroundMedian {
	return &MeanAroundMedian{NumByzantine: f}
}

// Name implements GAR.
func (m *MeanAroundMedian) Name() string { return "mean-around-median" }

// F implements ByzantineInfo.
func (m *MeanAroundMedian) F() int { return m.NumByzantine }

// MinWorkers implements ByzantineInfo: n ≥ 2f+1.
func (m *MeanAroundMedian) MinWorkers() int { return 2*m.NumByzantine + 1 }

// AggregateInto implements GAR: the median/closest-average pass is
// the same blocked column-engine kernel Bulyan's second phase uses, tiled
// and parallel over coordinate ranges.
func (m *MeanAroundMedian) AggregateInto(ws *Workspace, grads []tensor.Vector) (tensor.Vector, error) {
	if err := checkUniform(grads); err != nil {
		return nil, err
	}
	n := len(grads)
	if err := checkTolerance("mean-around-median", "f", m.NumByzantine, m.MinWorkers(), n); err != nil {
		return nil, err
	}
	out := ws.ensureOut(grads[0].Dim())
	ws.cols.Run(out, grads, n-m.NumByzantine, tensor.MeanAroundMedianKernel)
	return out, nil
}
