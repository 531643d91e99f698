package nn

import (
	"fmt"
	"math"
	"math/rand"

	"aggregathor/internal/tensor"
)

// Conv2D is a 2-D convolution with channel-last layout and SAME padding,
// implemented via im2col + matrix multiply (the standard CPU lowering).
type Conv2D struct {
	block      // w is (kh*kw*inC) x outC
	in         Shape
	kh, kw     int
	stride     int
	outC       int
	outH, outW int
	padT, padL int

	lastCols []*tensor.Matrix // per-sample im2col buffers from Forward
	lastRows int
}

// NewConv2D builds a convolution layer with He-normal initialisation.
func NewConv2D(in Shape, kh, kw, outC, stride int, rng *rand.Rand) *Conv2D {
	if stride < 1 {
		panic("nn: conv stride must be >= 1")
	}
	c := &Conv2D{in: in, kh: kh, kw: kw, stride: stride, outC: outC}
	c.outH, c.padT = samePadding(in.H, kh, stride)
	c.outW, c.padL = samePadding(in.W, kw, stride)
	patch := kh * kw * in.C
	c.block = newBlock(patch, outC)
	std := math.Sqrt(2 / float64(patch))
	for i := range c.w.Data {
		c.w.Data[i] = rng.NormFloat64() * std
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv2d(%dx%dx%d/%d)", c.kh, c.kw, c.outC, c.stride)
}

// OutShape implements Layer.
func (c *Conv2D) OutShape() Shape { return Shape{H: c.outH, W: c.outW, C: c.outC} }

// im2col expands one sample (flat H*W*C row) into a (outH*outW) x
// (kh*kw*inC) patch matrix.
func (c *Conv2D) im2col(sample tensor.Vector) *tensor.Matrix {
	patch := c.kh * c.kw * c.in.C
	cols := tensor.NewMatrix(c.outH*c.outW, patch)
	inW, inC := c.in.W, c.in.C
	for oy := 0; oy < c.outH; oy++ {
		for ox := 0; ox < c.outW; ox++ {
			row := cols.Row(oy*c.outW + ox)
			idx := 0
			baseY := oy*c.stride - c.padT
			baseX := ox*c.stride - c.padL
			for ky := 0; ky < c.kh; ky++ {
				y := baseY + ky
				if y < 0 || y >= c.in.H {
					idx += c.kw * inC
					continue
				}
				for kx := 0; kx < c.kw; kx++ {
					x := baseX + kx
					if x < 0 || x >= c.in.W {
						idx += inC
						continue
					}
					src := (y*inW + x) * inC
					copy(row[idx:idx+inC], sample[src:src+inC])
					idx += inC
				}
			}
		}
	}
	return cols
}

// col2im scatters a patch-matrix gradient back onto a flat sample gradient.
func (c *Conv2D) col2im(cols *tensor.Matrix, dst tensor.Vector) {
	inW, inC := c.in.W, c.in.C
	for oy := 0; oy < c.outH; oy++ {
		for ox := 0; ox < c.outW; ox++ {
			row := cols.Row(oy*c.outW + ox)
			idx := 0
			baseY := oy*c.stride - c.padT
			baseX := ox*c.stride - c.padL
			for ky := 0; ky < c.kh; ky++ {
				y := baseY + ky
				if y < 0 || y >= c.in.H {
					idx += c.kw * inC
					continue
				}
				for kx := 0; kx < c.kw; kx++ {
					x := baseX + kx
					if x < 0 || x >= c.in.W {
						idx += inC
						continue
					}
					dstOff := (y*inW + x) * inC
					for ch := 0; ch < inC; ch++ {
						dst[dstOff+ch] += row[idx+ch]
					}
					idx += inC
				}
			}
		}
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != c.in.Flat() {
		panic(fmt.Sprintf("nn: conv expects %d inputs, got %d", c.in.Flat(), x.Cols))
	}
	c.lastRows = x.Rows
	c.lastCols = make([]*tensor.Matrix, x.Rows)
	out := tensor.NewMatrix(x.Rows, c.outH*c.outW*c.outC)
	prod := tensor.NewMatrix(c.outH*c.outW, c.outC)
	for s := 0; s < x.Rows; s++ {
		cols := c.im2col(x.Row(s))
		c.lastCols[s] = cols
		tensor.MatMul(prod, cols, c.w)
		prod.AddRowVector(c.b)
		copy(out.Row(s), prod.Data)
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Matrix, needInput bool) *tensor.Matrix {
	c.ownGrads()
	for i := range c.gw.Data {
		c.gw.Data[i] = 0
	}
	c.gb.Zero()
	patch := c.kh * c.kw * c.in.C
	dOut := tensor.NewMatrix(c.outH*c.outW, c.outC)
	gwAcc, gbAcc := tensor.NewMatrix(patch, c.outC), tensor.NewVector(c.outC)
	var gradIn, dCols *tensor.Matrix
	if needInput {
		gradIn = tensor.NewMatrix(c.lastRows, c.in.Flat())
		dCols = tensor.NewMatrix(c.outH*c.outW, patch)
	}
	for s := 0; s < c.lastRows; s++ {
		copy(dOut.Data, gradOut.Row(s))
		// Parameter gradients: gw += colsᵀ·dOut, gb += colsum(dOut).
		tensor.MatMulTransA(gwAcc, c.lastCols[s], dOut)
		for i, v := range gwAcc.Data {
			c.gw.Data[i] += v
		}
		dOut.ColumnSumsInto(gbAcc)
		c.gb.Add(gbAcc)
		if needInput {
			// Input gradient: dCols = dOut·wᵀ, scattered by col2im.
			tensor.MatMulTransB(dCols, dOut, c.w)
			c.col2im(dCols, gradIn.Row(s))
		}
	}
	return gradIn
}

// MaxPool2D is a max-pooling layer with channel-last layout and SAME
// padding.
type MaxPool2D struct {
	in         Shape
	k, stride  int
	outH, outW int
	padT, padL int
	argmax     []int // flat input index winning each output position
	lastRows   int
}

// NewMaxPool2D builds a k×k max-pool with the given stride.
func NewMaxPool2D(in Shape, k, stride int) *MaxPool2D {
	p := &MaxPool2D{in: in, k: k, stride: stride}
	p.outH, p.padT = samePadding(in.H, k, stride)
	p.outW, p.padL = samePadding(in.W, k, stride)
	return p
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return fmt.Sprintf("maxpool(%dx%d/%d)", p.k, p.k, p.stride) }

// OutShape implements Layer.
func (p *MaxPool2D) OutShape() Shape { return Shape{H: p.outH, W: p.outW, C: p.in.C} }

// NumParams implements Layer.
func (p *MaxPool2D) NumParams() int { return 0 }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != p.in.Flat() {
		panic(fmt.Sprintf("nn: maxpool expects %d inputs, got %d", p.in.Flat(), x.Cols))
	}
	p.lastRows = x.Rows
	outFlat := p.outH * p.outW * p.in.C
	if cap(p.argmax) < x.Rows*outFlat {
		p.argmax = make([]int, x.Rows*outFlat)
	}
	p.argmax = p.argmax[:x.Rows*outFlat]
	out := tensor.NewMatrix(x.Rows, outFlat)
	inW, inC := p.in.W, p.in.C
	for s := 0; s < x.Rows; s++ {
		sample := x.Row(s)
		orow := out.Row(s)
		amax := p.argmax[s*outFlat : (s+1)*outFlat]
		for oy := 0; oy < p.outH; oy++ {
			for ox := 0; ox < p.outW; ox++ {
				baseY := oy*p.stride - p.padT
				baseX := ox*p.stride - p.padL
				for ch := 0; ch < inC; ch++ {
					best := math.Inf(-1)
					bestIdx := -1
					for ky := 0; ky < p.k; ky++ {
						y := baseY + ky
						if y < 0 || y >= p.in.H {
							continue
						}
						for kx := 0; kx < p.k; kx++ {
							xx := baseX + kx
							if xx < 0 || xx >= p.in.W {
								continue
							}
							idx := (y*inW+xx)*inC + ch
							if sample[idx] > best {
								best = sample[idx]
								bestIdx = idx
							}
						}
					}
					o := (oy*p.outW+ox)*inC + ch
					if bestIdx < 0 {
						orow[o] = 0
						amax[o] = -1
					} else {
						orow[o] = best
						amax[o] = bestIdx
					}
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(gradOut *tensor.Matrix, _ bool) *tensor.Matrix {
	gradIn := tensor.NewMatrix(p.lastRows, p.in.Flat())
	outFlat := p.outH * p.outW * p.in.C
	for s := 0; s < p.lastRows; s++ {
		grow := gradOut.Row(s)
		irow := gradIn.Row(s)
		amax := p.argmax[s*outFlat : (s+1)*outFlat]
		for o, idx := range amax {
			if idx >= 0 {
				irow[idx] += grow[o]
			}
		}
	}
	return gradIn
}
