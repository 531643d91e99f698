//go:build !purego

package tensor

// matMul runs MatMul's blocks: where the probe found AVX2, matMulAVX2 when
// a row of out fills a register and matMulNarrow when it is one to three
// columns wide; matMulGo otherwise. The choice is made here, once per call
// and on the operands' shapes alone: the mere presence of an assembly call
// in a Go k loop, never taken, made a two-column product 15–35 % slower.
func matMul(out, a, b *Matrix) {
	switch {
	case !hasAVX2:
		matMulGo(out, a, b)
	case out.Cols < 4:
		matMulNarrow(out, a, b)
	default:
		matMulAVX2(out, a, b)
	}
}

// matMulNarrow is MatMul one to three columns wide: matMulNarrowAVX2 takes
// the rows four at a time and matMulGo the one to three left over.
func matMulNarrow(out, a, b *Matrix) {
	n, r4 := out.Cols, a.Rows&^3
	matMulNarrowAVX2(out.Data[:r4*n], a.Data[:r4*a.Cols], b.Data, a.Cols, n)
	if r4 < a.Rows {
		matMulGo(&Matrix{Rows: a.Rows - r4, Cols: n, Data: out.Data[r4*n:]}, &Matrix{Rows: a.Rows - r4, Cols: a.Cols, Data: a.Data[r4*a.Cols:]}, b)
	}
}

// matMulAVX2 is matMulGo with each dense (four rows × two k) block's whole
// groups of four columns in matMul4x2AVX2 and the one to three columns left
// over in Go, and each block holding a zero in matMul4x2MaskedAVX2; the
// last odd k runs matMulGo's row-at-a-time steps, and the rows left over
// matMulGo itself.
func matMulAVX2(out, a, b *Matrix) {
	clear(out.Data)
	n := out.Cols
	n4 := n &^ 3
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		o0, o1, o2, o3 := out.Row(i), out.Row(i+1), out.Row(i+2), out.Row(i+3)
		k := 0
		for ; k+2 <= a.Cols; k += 2 {
			p0, p1, p2, p3 := a0[k], a1[k], a2[k], a3[k]
			q0, q1, q2, q3 := a0[k+1], a1[k+1], a2[k+1], a3[k+1]
			bp, bq := b.Row(k), b.Row(k+1)
			if p0 == 0 || p1 == 0 || p2 == 0 || p3 == 0 || q0 == 0 || q1 == 0 || q2 == 0 || q3 == 0 {
				matMul4x2MaskedAVX2(o0, o1, o2, o3, bp, bq, b.Data[(k+2)*n:], p0, p1, p2, p3, q0, q1, q2, q3)
				continue
			}
			matMul4x2AVX2(o0[:n4], o1[:n4], o2[:n4], o3[:n4], bp[:n4], bq[:n4], b.Data[(k+2)*n:], p0, p1, p2, p3, q0, q1, q2, q3)
			for j := n4; j < n; j++ {
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
	if i < a.Rows {
		matMulGo(&Matrix{Rows: a.Rows - i, Cols: n, Data: out.Data[i*n:]}, &Matrix{Rows: a.Rows - i, Cols: a.Cols, Data: a.Data[i*a.Cols:]}, b)
	}
}

// matMulTransA runs MatMulTransA's blocks: where the probe found AVX2,
// matMulTransANarrow when out is one to three columns wide and
// matMulTransAAVX2 when a row of out fills a register and a holds a four-k
// block; matMulTransAGo otherwise, chosen once per call for the reason
// matMul gives.
func matMulTransA(out, a, b *Matrix) {
	switch {
	case !hasAVX2:
		matMulTransAGo(out, a, b)
	case out.Cols < 4:
		matMulTransANarrow(out, a, b)
	case a.Rows >= 4:
		matMulTransAAVX2(out, a, b)
	default:
		matMulTransAGo(out, a, b)
	}
}

// matMulTransANarrow is MatMulTransA one to three columns wide:
// transANarrowAVX2 takes the output rows four at a time, and the one to
// three left over sum a row of b at a time from +0 in Go, zero coefficients
// skipped, as matMulTransAGo's steps do.
func matMulTransANarrow(out, a, b *Matrix) {
	n, i4 := out.Cols, a.Cols&^3
	transANarrowAVX2(out.Data[:i4*n], a.Data, b.Data, a.Rows, a.Cols, n)
	for i := i4; i < a.Cols; i++ {
		o := out.Row(i)
		o.Zero()
		for k := 0; k < a.Rows; k++ {
			axpyNonZero(o, a.Data[k*a.Cols+i], b.Row(k))
		}
	}
}

// matMulTransAAVX2 is matMulTransAGo with each dense (four k × two output
// rows) block's whole groups of four columns in transA4x2AVX2 and the one to
// three columns left over in Go, and each block holding a zero in
// transA4x2MaskedAVX2; the odd output row and the rows of a left over run
// matMulTransAGo's row-at-a-time steps.
func matMulTransAAVX2(out, a, b *Matrix) {
	n := out.Cols
	n4 := n &^ 3
	k := 0
	for ; k+4 <= a.Rows; k += 4 {
		first := k == 0
		a0, a1, a2, a3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
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
			op, oq := out.Row(i), out.Row(i+1)
			if p0 == 0 || p1 == 0 || p2 == 0 || p3 == 0 || q0 == 0 || q1 == 0 || q2 == 0 || q3 == 0 {
				transA4x2MaskedAVX2(op, oq, b0, b1, b2, b3, out.Data[(i+2)*n:], p0, p1, p2, p3, q0, q1, q2, q3, first)
				continue
			}
			transA4x2AVX2(op[:n4], oq[:n4], b0[:n4], b1[:n4], b2[:n4], b3[:n4], out.Data[(i+2)*n:], p0, p1, p2, p3, q0, q1, q2, q3, first)
			for j := n4; j < n; j++ {
				v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
				if first {
					op[j] = (((0 + p0*v0) + p1*v1) + p2*v2) + p3*v3
					oq[j] = (((0 + q0*v0) + q1*v1) + q2*v2) + q3*v3
					continue
				}
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

// matMul4x2AVX2 is matMulGo's dense (four rows × two k) block over whole
// groups of four columns: o_r[j] = (o_r[j] + p_r·bp[j]) + q_r·bq[j] for
// r < 4 and j < len(o0)&^3. The caller has resliced every row to len(o0).
// next, the rows of b the following block reads, is only prefetched: a cold
// weight matrix then streams in under the arithmetic.
//
//go:noescape
func matMul4x2AVX2(o0, o1, o2, o3, bp, bq, next []float64, p0, p1, p2, p3, q0, q1, q2, q3 float64)

// transA4x2AVX2 is matMulTransAGo's dense (four k × two output rows) block
// over whole groups of four columns: for j < len(op)&^3,
// op[j] = (((s + p0·b0[j]) + p1·b1[j]) + p2·b2[j]) + p3·b3[j] with s = +0
// when first is set and op[j] otherwise, and oq[j] the same with q. The
// caller has resliced every row to len(op). next, the output rows the
// following block writes, is only prefetched: the write misses of a cold
// gradient store then overlap the arithmetic.
//
//go:noescape
func transA4x2AVX2(op, oq, b0, b1, b2, b3, next []float64, p0, p1, p2, p3, q0, q1, q2, q3 float64, first bool)

// matMul4x2MaskedAVX2 is matMulGo's (four rows × two k) block when it holds
// a zero coefficient, over every column: the products are ANDed with their
// coefficient's a ≠ 0 mask, which leaves the bits the Go loop's skip does
// (see matmul_amd64.s). Every row holds len(o0) values; next is as for
// matMul4x2AVX2.
//
//go:noescape
func matMul4x2MaskedAVX2(o0, o1, o2, o3, bp, bq, next []float64, p0, p1, p2, p3, q0, q1, q2, q3 float64)

// transA4x2MaskedAVX2 is matMulTransAGo's (four k × two output rows) block
// when it holds a zero coefficient, over every column, masked as
// matMul4x2MaskedAVX2 is, the sums starting from +0 when first is set.
// Every row holds len(op) values; next is as for transA4x2AVX2.
//
//go:noescape
func transA4x2MaskedAVX2(op, oq, b0, b1, b2, b3, next []float64, p0, p1, p2, p3, q0, q1, q2, q3 float64, first bool)

// matMulNarrowAVX2 is MatMul's rows four at a time for cols of one to
// three: out holds a multiple of four rows of cols values, a as many rows
// of inner values, b inner rows of cols. Every output element is a sum from
// +0 over ascending k of its masked products: matMulGo's bits.
//
//go:noescape
func matMulNarrowAVX2(out, a, b []float64, inner, cols int)

// transANarrowAVX2 is MatMulTransA's output rows four at a time for cols of
// one to three: out holds a multiple of four rows of cols values, a is k
// rows of stride values (out's rows are a's columns) and b k rows of cols.
// Every output element is a sum from +0 over ascending k of its masked
// products: matMulTransAGo's bits.
//
//go:noescape
func transANarrowAVX2(out, a, b []float64, k, stride, cols int)
