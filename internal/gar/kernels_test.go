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
func checkBlockDistance(t *testing.T, a []float64, b [8][]float64) {
	t.Helper()
	got, want := blockDistance(a, b), blockDistance8(a, b)
	for k := range want {
		if !sameBits(got[k], want[k]) {
			t.Fatalf("%s: len %d: pair %d = %v (%#x), blockDistance8 gives %v (%#x)", tensor.Kernels(), len(a),
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

// blocksAt carves a and eight b blocks of length n out of buf, each starting
// off>>(2k)&3 elements into its ninth — an odd offset is a load that is not
// 16-byte aligned — and then aliases them: bit k of alias makes b_k the block
// before it (b_0 becomes a), so alias 0xff is b7 == … == b0 == a.
func blocksAt(buf []float64, n int, off uint32, alias uint8) (a []float64, b [8][]float64) {
	stride := len(buf) / 9
	a = buf[int(off&3):][:n]
	prev := a
	for k := range b {
		b[k] = buf[(k+1)*stride+int(off>>(2*k+2)&3):][:n]
		if alias&(1<<k) != 0 {
			b[k] = prev
		}
		prev = b[k]
	}
	return a, b
}

// TestBlockDistanceMatchesGo holds the dispatched distance kernel to the Go
// oracle at every length 0..300 — every count of two-coordinate steps, with
// and without the odd tail — over odd-offset sub-slices and aliasings of the
// arguments (none, all, and random ones), on noise salted with the edge
// values.
func TestBlockDistanceMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	buf := make([]float64, 9*304)
	for n := 0; n <= 300; n++ {
		for i := range buf {
			buf[i] = rng.NormFloat64()
			if rng.Intn(8) == 0 {
				buf[i] = edgeFloats[rng.Intn(len(edgeFloats))]
			}
		}
		off := rng.Uint32()
		for _, alias := range []uint8{0, 0xff, uint8(rng.Intn(256)), uint8(rng.Intn(256))} {
			a, b := blocksAt(buf, n, off, alias)
			checkBlockDistance(t, a, b)
		}
	}
}

// TestBlockDistanceKeepsLengthChecks: a block shorter than a panics on either
// path; the assembly never gets to read past it.
func TestBlockDistanceKeepsLengthChecks(t *testing.T) {
	a, short := make([]float64, 8), make([]float64, 8)[:7:7]
	type kernel = func(a []float64, b [8][]float64) [8]float64
	for name, fn := range map[string]kernel{"dispatched": blockDistance, "go": blockDistance8} {
		for k := 0; k < 8; k++ {
			b := [8][]float64{a, a, a, a, a, a, a, a}
			b[k] = short
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: a short b%d did not panic", name, k)
					}
				}()
				fn(a, b)
			}()
		}
	}
}

// minDistCalls is the fewest eight-pair calls any orientation of n vectors'
// pairs packs into: the least total of whole-call budgets, spread as evenly as
// it can be, that passes Landau's condition — the k smallest budgets hold
// the k(k−1)/2 pairs among their vectors, for every k.
func minDistCalls(n int) int {
	for calls := (n*(n-1)/2 + 7) / 8; ; calls++ {
		held := 0
		for k := 1; k <= n && 8*held >= (k-1)*(k-2)/2; k++ {
			held += calls / n
			if k > n-calls%n {
				held++
			}
			if k == n && 8*held >= n*(n-1)/2 {
				return calls
			}
		}
	}
}

// TestDistPlanPacksEveryPairOnce: for every n up to 300 the plan hands each
// pair to exactly one kernel slot — its own row-order partials slot, with one
// of its two vectors as the anchor — fills the rest with dropped repeats of a
// real partner, and needs no more calls than the packing bound (22 at n = 19,
// where row order takes 30).
func TestDistPlanPacksEveryPairOnce(t *testing.T) {
	for n := 2; n <= 300; n++ {
		plan := distPlan(n)
		seen := make([]int, n*(n-1)/2)
		for _, c := range plan {
			real := 0
			for k, p := range c.pair {
				j := c.partner[k]
				if p < 0 {
					if j != c.partner[0] || c.pair[0] < 0 {
						t.Fatalf("n=%d: anchor %d: spare slot %d repeats %d, not a real partner", n, c.anchor, k, j)
					}
					continue
				}
				real++
				if j == c.anchor || p != pairIndex(n, min(c.anchor, j), max(c.anchor, j)) {
					t.Fatalf("n=%d: anchor %d partner %d writes slot %d", n, c.anchor, j, p)
				}
				seen[p]++
			}
			if real == 0 {
				t.Fatalf("n=%d: anchor %d: a call with no pair", n, c.anchor)
			}
		}
		for p, k := range seen {
			if k != 1 {
				t.Fatalf("n=%d: pair slot %d computed %d times", n, p, k)
			}
		}
		if want := minDistCalls(n); len(plan) != want {
			t.Errorf("n=%d: %d calls, the packing bound is %d", n, len(plan), want)
		}
	}
	if got := len(distPlan(19)); got != 22 {
		t.Errorf("n=19: %d calls, want 22", got)
	}
}

// TestDistSweepPackedPairs: every pair of the sweep, whichever of its two
// vectors anchors it and wherever its call falls in the plan — a full call or
// one padded with repeats — is the oracle's distance of its own two vectors,
// block by block.
func TestDistSweepPackedPairs(t *testing.T) {
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
// distance kernel (AVX2 where tensor.Kernels says so): it must return
// blockDistance8's bits.
func FuzzBlockDistance(f *testing.F) {
	seed := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(uint16(0), uint32(0), uint8(0), seed(1))
	f.Add(uint16(1), uint32(0x1b), uint8(0), seed(edgeFloats...))
	f.Add(uint16(37), uint32(0x3e4e4), uint8(5), seed(edgeFloats...))
	f.Add(uint16(300), uint32(0x15555), uint8(0xf0), seed(1e300, -1e300, 1e-300, 5e-324, 3, 4))
	f.Add(uint16(128), uint32(0x3ffff), uint8(0xff), seed(math.Inf(1), math.Inf(1), math.NaN(), 0, math.Copysign(0, -1)))
	f.Fuzz(func(t *testing.T, length uint16, offs uint32, alias uint8, raw []byte) {
		words := len(raw) / 8
		if words == 0 {
			return
		}
		n := int(length) % 301
		buf := make([]float64, 9*(n+3))
		for i := range buf {
			buf[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(i%words):]))
		}
		a, b := blocksAt(buf, n, offs, alias)
		checkBlockDistance(t, a, b)
	})
}

// TestRulesMatchOnGoKernels reruns every registry rule on
// TestWorkspaceRulesGOMAXPROCSParity's inputs with the distance dispatch and
// the column pass's fill, sort and walk (tensor.GoKernels) pointed at the Go
// functions: no aggregate — so no trajectory — may depend on which kernels
// ran. (tensor.TestColumnPassMatchesOnGoSort is its twin for the column pass
// alone.)
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
			dispatched, restore := blockDistance, tensor.GoKernels()
			blockDistance = blockDistance8
			want, wantErr := run()
			blockDistance = dispatched
			restore()
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

// BenchmarkBlockDistance times one eight-pair call over a block of the
// sweep's width on the dispatched kernel and on the Go function; ns/pair is
// per coordinate-pair (one subtract, multiply and add).
func BenchmarkBlockDistance(b *testing.B) {
	blocks := randVectors(72, 9, distBlockCoords, 0)
	var bs [8][]float64
	for k := range bs {
		bs[k] = blocks[k+1]
	}
	type kernel = func(a []float64, b [8][]float64) [8]float64
	for _, k := range []struct {
		name string
		fn   kernel
	}{{tensor.Kernels(), blockDistance}, {"go", blockDistance8}} {
		b.Run(k.name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				for _, r := range k.fn(blocks[0], bs) {
					sink += r
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(8*distBlockCoords), "ns/pair")
			if math.IsNaN(sink) {
				b.Fatal("finite blocks summed to NaN")
			}
		})
	}
}
