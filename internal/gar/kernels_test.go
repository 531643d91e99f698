package gar

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/tensor"
)

// sameBits reports whether the kernel's value is the oracle's: the same bits,
// or a NaN where the oracle has one (which NaN an x86 add hands on is the
// compiler's operand order, not arithmetic; the engine saturates it to +Inf).
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// checkBlockDistance holds the dispatched kernel to the Go oracle on one set
// of blocks.
func checkBlockDistance(t *testing.T, a, b0, b1, b2, b3 []float64) {
	t.Helper()
	var got, want [4]float64
	got[0], got[1], got[2], got[3] = blockDistance(a, b0, b1, b2, b3)
	want[0], want[1], want[2], want[3] = blockDistance4(a, b0, b1, b2, b3)
	for k := range want {
		if !sameBits(got[k], want[k]) {
			t.Fatalf("%s: len %d: pair %d = %v (%#x), blockDistance4 gives %v (%#x)", tensor.Kernels(), len(a),
				k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

// edgeFloats are the values a transcription of the kernel could get wrong:
// both zeros, denormals, magnitudes whose squares overflow or vanish, the
// infinities (Inf − Inf is the NaN the engine saturates) and NaN itself.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 5e-324, -5e-324, 2.2250738585072014e-308,
	1e300, -1e300, 1e-300, 1e154, 1.5e154, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), 1 + 1e-15, 1.0 / 3,
}

// blocksAt carves a and four b blocks of length n out of buf, each starting
// off[k] elements into its fifth — an odd offset is a load that is not
// 16-byte aligned — and then aliases them: bit k of alias makes b_k the block
// before it (b_0 becomes a), so alias 15 is b3 == b2 == b1 == b0 == a.
func blocksAt(buf []float64, n int, off [5]int, alias uint8) (bs [5][]float64) {
	stride := len(buf) / 5
	for k := range bs {
		bs[k] = buf[k*stride+off[k]:][:n]
		if k > 0 && alias&(1<<(k-1)) != 0 {
			bs[k] = bs[k-1]
		}
	}
	return bs
}

// TestBlockDistanceMatchesGo holds the dispatched distance kernel to the Go
// oracle at every length 0..300 — every count of two-coordinate steps, with
// and without the odd tail — over odd-offset sub-slices and every aliasing
// of the arguments, on noise salted with the edge values.
func TestBlockDistanceMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	buf := make([]float64, 5*304)
	for n := 0; n <= 300; n++ {
		for i := range buf {
			buf[i] = rng.NormFloat64()
			if rng.Intn(8) == 0 {
				buf[i] = edgeFloats[rng.Intn(len(edgeFloats))]
			}
		}
		var off [5]int
		for k := range off {
			off[k] = rng.Intn(4)
		}
		for alias := uint8(0); alias < 16; alias++ {
			bs := blocksAt(buf, n, off, alias)
			checkBlockDistance(t, bs[0], bs[1], bs[2], bs[3], bs[4])
		}
	}
}

// TestBlockDistanceKeepsLengthChecks: a block shorter than a panics on either
// path; the assembly never gets to read past it.
func TestBlockDistanceKeepsLengthChecks(t *testing.T) {
	a, short := make([]float64, 8), make([]float64, 8)[:7:7]
	type kernel = func(a, b0, b1, b2, b3 []float64) (r0, r1, r2, r3 float64)
	for name, fn := range map[string]kernel{"dispatched": blockDistance, "go": blockDistance4} {
		for k := 1; k <= 4; k++ {
			bs := [5][]float64{a, a, a, a, a}
			bs[k] = short
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: a short b%d did not panic", name, k-1)
					}
				}()
				fn(bs[0], bs[1], bs[2], bs[3], bs[4])
			}()
		}
	}
}

// TestDistSweepTailShapes: every pair of the sweep, wherever it falls — in a
// full four-pair call or in a tail of one to three replayed with its last
// block repeated (n − 1 − i mod 4 takes every value for n in 2..23) — is the
// oracle's distance of its own two vectors, block by block.
func TestDistSweepTailShapes(t *testing.T) {
	const d = distBlockCoords + 37 // a full block and a ragged odd one
	for n := 2; n <= 23; n++ {
		grads := randVectors(int64(71+n), n, d, 0)
		var ws Workspace
		dist := BlockedPairwiseSquaredDistances(grads, &ws)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				var want float64
				for lo := 0; lo < d; lo += distBlockCoords {
					a, b := grads[i][lo:min(lo+distBlockCoords, d)], grads[j][lo:min(lo+distBlockCoords, d)]
					r, _, _, _ := blockDistance4(a, b, b, b, b)
					want += r
				}
				if math.Float64bits(dist[i][j]) != math.Float64bits(want) || dist[j][i] != dist[i][j] {
					t.Fatalf("%s: n=%d: dist[%d][%d] = %v, dist[%d][%d] = %v, the pair alone gives %v",
						tensor.Kernels(), n, i, j, dist[i][j], j, i, dist[j][i], want)
				}
			}
		}
	}
}

// FuzzBlockDistance feeds raw float64 bit patterns through the dispatched
// distance kernel (SSE2 on amd64): it must return blockDistance4's bits.
func FuzzBlockDistance(f *testing.F) {
	seed := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(uint16(0), uint8(0), uint8(0), seed(1))
	f.Add(uint16(1), uint8(0x1b), uint8(0), seed(edgeFloats...))
	f.Add(uint16(37), uint8(0xe4), uint8(5), seed(edgeFloats...))
	f.Add(uint16(300), uint8(0x55), uint8(15), seed(1e300, -1e300, 1e-300, 5e-324, 3, 4))
	f.Add(uint16(128), uint8(0xff), uint8(2), seed(math.Inf(1), math.Inf(1), math.NaN(), 0, math.Copysign(0, -1)))
	f.Fuzz(func(t *testing.T, length uint16, offs, alias uint8, raw []byte) {
		words := len(raw) / 8
		if words == 0 {
			return
		}
		n := int(length) % 301
		buf := make([]float64, 5*(n+3))
		for i := range buf {
			buf[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(i%words):]))
		}
		off := [5]int{int(offs) & 3, int(offs) >> 2 & 3, int(offs) >> 4 & 3, int(offs) >> 6, int(alias) >> 4 & 3}
		bs := blocksAt(buf, n, off, alias&15)
		checkBlockDistance(t, bs[0], bs[1], bs[2], bs[3], bs[4])
	})
}

// TestRulesMatchOnGoKernels reruns every registry rule on
// TestWorkspaceRulesGOMAXPROCSParity's inputs with the distance dispatch
// pointed at the Go function: no aggregate — so no trajectory — may depend on
// which kernel ran. (tensor.TestColumnPassMatchesOnGoSort is its twin for the
// tile sort; the two dispatch variables live in two packages.)
func TestRulesMatchOnGoKernels(t *testing.T) {
	const d = 2*distParallelMin + 13
	for _, grads := range [][]tensor.Vector{
		randVectors(28, 19, d, 0.001), randVectors(28, 19, d, 1e-6), randVectors(28, 20, d, 1e-6),
	} {
		for _, name := range Names() {
			rule, err := New(name, 4)
			if err != nil {
				t.Fatal(err)
			}
			run := func() (tensor.Vector, error) {
				out, err := AggregateInto(NewWorkspace(), rule, grads)
				return out.Clone(), err
			}
			got, gotErr := run()
			dispatched := blockDistance
			blockDistance = blockDistance4
			want, wantErr := run()
			blockDistance = dispatched
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s n=%d: error %v, %v on the Go kernel", name, len(grads), gotErr, wantErr)
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s: %s n=%d: coordinate %d = %v, %v on the Go kernel",
						tensor.Kernels(), name, len(grads), j, got[j], want[j])
				}
			}
		}
	}
}

// BenchmarkBlockDistance times one four-pair call over a block of the
// sweep's width on the dispatched kernel and on the Go function; ns/pair is
// per coordinate-pair (one subtract, multiply and add).
func BenchmarkBlockDistance(b *testing.B) {
	blocks := randVectors(72, 5, distBlockCoords, 0)
	type kernel = func(a, b0, b1, b2, b3 []float64) (r0, r1, r2, r3 float64)
	for _, k := range []struct {
		name string
		fn   kernel
	}{{tensor.Kernels(), blockDistance}, {"go", blockDistance4}} {
		b.Run(k.name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				r0, r1, r2, r3 := k.fn(blocks[0], blocks[1], blocks[2], blocks[3], blocks[4])
				sink += r0 + r1 + r2 + r3
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(4*distBlockCoords), "ns/pair")
			if math.IsNaN(sink) {
				b.Fatal("finite blocks summed to NaN")
			}
		})
	}
}
