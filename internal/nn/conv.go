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

	// cols are the per-sample im2col matrices, one per row of the last
	// Forward's batch, kept from call to call: a matrix made for this
	// layer's shape keeps its padding cells at zero (im2col never writes
	// them), so it serves every later sample. y, prod, dOut, gwAcc, gbAcc,
	// gradIn and dCols are the rest of the layer's scratch, reused like
	// Dense's.
	cols                 []*tensor.Matrix
	lastRows             int
	y, prod, dOut, gwAcc *tensor.Matrix
	gradIn, dCols        *tensor.Matrix
	gbAcc                tensor.Vector
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

// im2col expands one sample (flat H*W*C row) into cols, a (outH*outW) x
// (kh*kw*inC) patch matrix whose padding cells are zero and stay so.
func (c *Conv2D) im2col(sample tensor.Vector, cols *tensor.Matrix) {
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
	if len(c.cols) > x.Rows {
		// A smaller batch releases a larger one's matrices, such as an
		// evaluation's.
		clear(c.cols[x.Rows:])
		c.cols = c.cols[:x.Rows]
	}
	for len(c.cols) < x.Rows {
		c.cols = append(c.cols, tensor.NewMatrix(c.outH*c.outW, c.kh*c.kw*c.in.C))
	}
	c.y = sized(c.y, x.Rows, c.outH*c.outW*c.outC)
	c.prod = sized(c.prod, c.outH*c.outW, c.outC)
	for s := 0; s < x.Rows; s++ {
		c.im2col(x.Row(s), c.cols[s])
		tensor.MatMul(c.prod, c.cols[s], c.w)
		c.prod.AddRowVector(c.b)
		copy(c.y.Row(s), c.prod.Data)
	}
	return c.y
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Matrix, needInput bool) *tensor.Matrix {
	c.ownGrads()
	for i := range c.gw.Data {
		c.gw.Data[i] = 0
	}
	c.gb.Zero()
	patch := c.kh * c.kw * c.in.C
	c.dOut = sized(c.dOut, c.outH*c.outW, c.outC)
	c.gwAcc = sized(c.gwAcc, patch, c.outC)
	if c.gbAcc == nil {
		c.gbAcc = tensor.NewVector(c.outC)
	}
	var gradIn *tensor.Matrix
	if needInput {
		// col2im adds into the input gradient.
		c.gradIn = sized(c.gradIn, c.lastRows, c.in.Flat())
		clear(c.gradIn.Data)
		c.dCols = sized(c.dCols, c.outH*c.outW, patch)
		gradIn = c.gradIn
	}
	for s := 0; s < c.lastRows; s++ {
		copy(c.dOut.Data, gradOut.Row(s))
		// Parameter gradients: gw += colsᵀ·dOut, gb += colsum(dOut).
		tensor.MatMulTransA(c.gwAcc, c.cols[s], c.dOut)
		for i, v := range c.gwAcc.Data {
			c.gw.Data[i] += v
		}
		c.dOut.ColumnSumsInto(c.gbAcc)
		c.gb.Add(c.gbAcc)
		if needInput {
			// Input gradient: dCols = dOut·wᵀ, scattered by col2im.
			tensor.MatMulTransB(c.dCols, c.dOut, c.w)
			c.col2im(c.dCols, gradIn.Row(s))
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
	// y and gradIn are reused from call to call, like Dense's.
	y, gradIn *tensor.Matrix
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
	p.y = sized(p.y, x.Rows, outFlat)
	inW, inC := p.in.W, p.in.C
	for s := 0; s < x.Rows; s++ {
		sample := x.Row(s)
		orow := p.y.Row(s)
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
	return p.y
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(gradOut *tensor.Matrix, _ bool) *tensor.Matrix {
	// The winners' gradients are added in: a window overlapping the next
	// can win the same input twice.
	p.gradIn = sized(p.gradIn, p.lastRows, p.in.Flat())
	clear(p.gradIn.Data)
	outFlat := p.outH * p.outW * p.in.C
	for s := 0; s < p.lastRows; s++ {
		grow := gradOut.Row(s)
		irow := p.gradIn.Row(s)
		amax := p.argmax[s*outFlat : (s+1)*outFlat]
		for o, idx := range amax {
			if idx >= 0 {
				irow[idx] += grow[o]
			}
		}
	}
	return p.gradIn
}
