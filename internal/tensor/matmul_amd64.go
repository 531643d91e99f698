//go:build !purego

package tensor

// matMul runs MatMul's blocks: matMulAVX2 where the probe found AVX2 and a
// row of out fills a register, matMulGo otherwise. A narrower product (a
// hidden width of two) keeps the Go loop as it is: the mere presence of the
// assembly call in its k loop, never taken, made that shape 15–35 % slower.
func matMul(out, a, b *Matrix) {
	if hasAVX2 && out.Cols >= 4 {
		matMulAVX2(out, a, b)
		return
	}
	matMulGo(out, a, b)
}

// matMulAVX2 is matMulGo with each dense (four rows × two k) block's whole
// groups of four columns in matMul4x2AVX2 and the one to three columns left
// over in Go; blocks holding a zero and the last odd k run matMulGo's
// row-at-a-time steps, and the rows left over matMulGo itself.
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

// matMulTransA runs MatMulTransA's blocks: matMulTransAAVX2 where the probe
// found AVX2, a row of out fills a register and a holds a four-k block,
// matMulTransAGo otherwise, for the reason matMul gives.
func matMulTransA(out, a, b *Matrix) {
	if hasAVX2 && out.Cols >= 4 && a.Rows >= 4 {
		matMulTransAAVX2(out, a, b)
		return
	}
	matMulTransAGo(out, a, b)
}

// matMulTransAAVX2 is matMulTransAGo with each dense (four k × two output
// rows) block's whole groups of four columns in transA4x2AVX2 and the one to
// three columns left over in Go; blocks holding a zero, the odd output row
// and the rows of a left over run matMulTransAGo's row-at-a-time steps.
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
			if p0 == 0 || p1 == 0 || p2 == 0 || p3 == 0 || q0 == 0 || q1 == 0 || q2 == 0 || q3 == 0 {
				rowwise(i)
				rowwise(i + 1)
				continue
			}
			op, oq := out.Row(i), out.Row(i+1)
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
