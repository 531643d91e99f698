package tensor

import "fmt"

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero-filled Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: NewMatrix negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// MatMul computes out = a·b. Shapes must satisfy a.Cols == b.Rows,
// out.Rows == a.Rows and out.Cols == b.Cols; out is overwritten.
//
// Every output element accumulates its products a[i][k]·b[k][j] in ascending
// k, each step as acc + a·b, and a zero a[i][k] contributes nothing (its row
// of b is never read, so 0·Inf cannot poison the sum): that fixes the bits of
// the result. Within that, rows of a go four at a time with k outermost, so b
// is streamed once per four output rows instead of once per row, and k goes
// two at a time, so an output element is loaded and stored once per two
// products. A (four rows × two k) block of a holding a zero, and the rows
// left over, take the row-at-a-time loop. Where the CPU has AVX2,
// matmul_amd64.go runs the product in matmul_amd64.s, chosen once by out's
// width: four columns or more go blockwise (matMulAVX2), a block holding a
// zero as a masked product, each a·b ANDed with its a ≠ 0 mask, which adds
// +0 where the Go loop skips — the same bits, since a sum from +0 never
// becomes −0 — and one to three columns four rows at a time, a row a lane
// (matMulNarrow). Elsewhere matMulGo runs them: the same bits either way.
func MatMul(out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	matMul(out, a, b)
}

// matMulGo is MatMul's Go loop: the portable path, the path of the rows
// the assembly leaves over, and its oracle.
func matMulGo(out, a, b *Matrix) {
	for i := range out.Data {
		out.Data[i] = 0
	}
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		o0 := out.Row(i)
		n := len(o0)
		o1, o2, o3 := out.Row(i + 1)[:n], out.Row(i + 2)[:n], out.Row(i + 3)[:n]
		k := 0
		for ; k+2 <= a.Cols; k += 2 {
			p0, p1, p2, p3 := a0[k], a1[k], a2[k], a3[k]
			q0, q1, q2, q3 := a0[k+1], a1[k+1], a2[k+1], a3[k+1]
			bp, bq := b.Row(k)[:n], b.Row(k + 1)[:n]
			if p0 == 0 || p1 == 0 || p2 == 0 || p3 == 0 || q0 == 0 || q1 == 0 || q2 == 0 || q3 == 0 {
				axpyNonZero(o0, p0, bp)
				axpyNonZero(o0, q0, bq)
				axpyNonZero(o1, p1, bp)
				axpyNonZero(o1, q1, bq)
				axpyNonZero(o2, p2, bp)
				axpyNonZero(o2, q2, bq)
				axpyNonZero(o3, p3, bp)
				axpyNonZero(o3, q3, bq)
				continue
			}
			for j := range o0 {
				bpj, bqj := bp[j], bq[j]
				o0[j] = (o0[j] + p0*bpj) + q0*bqj
				o1[j] = (o1[j] + p1*bpj) + q1*bqj
				o2[j] = (o2[j] + p2*bpj) + q2*bqj
				o3[j] = (o3[j] + p3*bpj) + q3*bqj
			}
		}
		if k < a.Cols {
			bp := b.Row(k)
			axpyNonZero(o0, a0[k], bp)
			axpyNonZero(o1, a1[k], bp)
			axpyNonZero(o2, a2[k], bp)
			axpyNonZero(o3, a3[k], bp)
		}
	}
	for ; i < a.Rows; i++ {
		orow := out.Row(i)
		for k, av := range a.Row(i) {
			axpyNonZero(orow, av, b.Row(k))
		}
	}
}

// axpyNonZero is the matmul kernels' row-at-a-time step: o += av·b, skipped
// whole for a zero av.
func axpyNonZero(o Vector, av float64, b Vector) {
	if av != 0 {
		o.Axpy(av, b)
	}
}

// MatMulTransA computes out = aᵀ·b where a is stored untransposed; out is
// overwritten.
//
// The bits are fixed as in MatMul: out[i][j] accumulates a[k][i]·b[k][j] in
// ascending k from +0, each step as acc + a·b, a zero a[k][i] contributing
// nothing. Rows of a go four at a time and each pass writes two output rows,
// sharing the four loaded values of b: the first four rows write the output —
// 0 + p₀ + p₁ + p₂ + p₃ left to right, the leading 0 keeping an all −0 sum
// +0 as a zero-filled accumulator would — so nothing is zeroed first and, up
// to four rows of a (a small mini-batch), nothing is read back; each later
// four add in the same order. A (four k × two rows) block of a holding a
// zero, the odd output row and the rows of a left over go a row at a time.
// Where the CPU has AVX2, matmul_amd64.go runs the product in
// matmul_amd64.s, chosen once by out's width: four columns or more, with a
// four rows or more, go blockwise in both forms (matMulTransAAVX2), a block
// holding a zero masked as in MatMul, and one to three columns four output
// rows at a time, a row a lane (matMulTransANarrow). Elsewhere
// matMulTransAGo runs them: the same bits either way.
func MatMulTransA(out, a, b *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	matMulTransA(out, a, b)
}

// matMulTransAGo is MatMulTransA's Go loop: the portable path, the path of
// a product over fewer than four rows of a, and the assembly's oracle.
func matMulTransAGo(out, a, b *Matrix) {
	if a.Rows < 4 {
		for i := range out.Data {
			out.Data[i] = 0
		}
	}
	k := 0
	for ; k+4 <= a.Rows; k += 4 {
		first := k == 0
		a0, a1, a2, a3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		b0 := b.Row(k)
		n := len(b0)
		b1, b2, b3 := b.Row(k + 1)[:n], b.Row(k + 2)[:n], b.Row(k + 3)[:n]
		// rowwise is the block's contribution to output row i, a row of b at
		// a time.
		rowwise := func(i int) {
			o := out.Row(i)
			if first {
				o.Zero()
			}
			axpyNonZero(o, a0[i], b0)
			axpyNonZero(o, a1[i], b1)
			axpyNonZero(o, a2[i], b2)
			axpyNonZero(o, a3[i], b3)
		}
		i := 0
		for ; i+2 <= a.Cols; i += 2 {
			p0, p1, p2, p3 := a0[i], a1[i], a2[i], a3[i]
			q0, q1, q2, q3 := a0[i+1], a1[i+1], a2[i+1], a3[i+1]
			if p0 == 0 || p1 == 0 || p2 == 0 || p3 == 0 || q0 == 0 || q1 == 0 || q2 == 0 || q3 == 0 {
				rowwise(i)
				rowwise(i + 1)
				continue
			}
			op, oq := out.Row(i)[:n], out.Row(i + 1)[:n]
			if first {
				for j := range b0 {
					v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
					op[j] = (((0 + p0*v0) + p1*v1) + p2*v2) + p3*v3
					oq[j] = (((0 + q0*v0) + q1*v1) + q2*v2) + q3*v3
				}
				continue
			}
			for j := range b0 {
				v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
				op[j] = (((op[j] + p0*v0) + p1*v1) + p2*v2) + p3*v3
				oq[j] = (((oq[j] + q0*v0) + q1*v1) + q2*v2) + q3*v3
			}
		}
		if i < a.Cols {
			rowwise(i)
		}
	}
	for ; k < a.Rows; k++ {
		brow := b.Row(k)
		for i, av := range a.Row(k) {
			axpyNonZero(out.Row(i), av, brow)
		}
	}
}

// MatMulTransB computes out = a·bᵀ where b is stored untransposed.
func MatMulTransB(out, a, b *Matrix) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch (%dx%d)·(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}

// AddRowVector adds v to every row of m (broadcast add, used for biases).
func (m *Matrix) AddRowVector(v Vector) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVector dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		row.Add(v)
	}
}

// ColumnSumsInto overwrites out with the per-column sum of m (a bias
// gradient), rows added top to bottom.
func (m *Matrix) ColumnSumsInto(out Vector) {
	if len(out) != m.Cols {
		panic("tensor: ColumnSumsInto dimension mismatch")
	}
	out.Zero()
	for i := 0; i < m.Rows; i++ {
		out.Add(m.Row(i))
	}
}
