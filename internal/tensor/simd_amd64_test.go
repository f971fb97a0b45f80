//go:build amd64

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Property: the AVX2 quad-dot kernels match the portable reference exactly
// on random inputs, across strides, lengths and alignments.
func TestDotQuadAsmMatchesGeneric(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no SIMD int8 kernels on this machine")
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := quantLane * (1 + rng.Intn(8))
		stride := n + quantLane*rng.Intn(3)
		x := randI8(rng, stride)
		w := randI8(rng, 4*stride)
		x16 := make([]int16, stride)
		for i := range x16 {
			x16[i] = int16(rng.Intn(2*quantProbScale+1) - quantProbScale)
		}
		var got, want, gotW, wantW [4]int32
		dotQuadAsm(&x[0], &w[0], stride, n, &got)
		dotQuadGeneric(x, w, stride, n, &want)
		dotQuadWAsm(&x16[0], &w[0], stride, n, &gotW)
		dotQuadWGeneric(x16, w, stride, n, &wantW)
		if got != want {
			t.Fatalf("trial %d (n=%d stride=%d): dotQuad asm %v != generic %v", trial, n, stride, got, want)
		}
		if gotW != wantW {
			t.Fatalf("trial %d (n=%d stride=%d): dotQuadW asm %v != generic %v", trial, n, stride, gotW, wantW)
		}
	}
}

// Property: the vectorized softmax-grid exp agrees with the scalar
// reference within one grid step per element (the two round the 2^k split
// differently at representation boundaries) and the sums track accordingly.
// Against math.Exp the scalar reference is within one grid step too.
func TestExpGridAsmMatchesGeneric(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no SIMD int8 kernels on this machine")
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		s := make([]float64, n)
		maxv := math.Inf(-1)
		for i := range s {
			s[i] = rng.NormFloat64() * 8
			if s[i] > maxv {
				maxv = s[i]
			}
		}
		gotP := make([]int16, n)
		wantP := make([]int16, n)
		gotS := expGrid(s, maxv, gotP)
		wantS := expGridGeneric(s, maxv, wantP)
		diff := 0
		for i := range s {
			d := int(gotP[i]) - int(wantP[i])
			if d < 0 {
				d = -d
			}
			if d > 1 {
				t.Fatalf("trial %d elem %d (x=%g): asm %d vs generic %d", trial, i, s[i]-maxv, gotP[i], wantP[i])
			}
			diff += d
			exact := math.Exp(s[i]-maxv) * quantProbScale
			if e := math.Abs(float64(wantP[i]) - exact); e > 1 {
				t.Fatalf("trial %d elem %d: generic %d vs math.Exp grid %g", trial, i, wantP[i], exact)
			}
		}
		if ds := gotS - wantS; ds > diff || ds < -diff {
			t.Fatalf("trial %d: sum asm %d vs generic %d with element diff budget %d", trial, gotS, wantS, diff)
		}
	}
}

func randI8(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(255) - 127)
	}
	return out
}

// randKernelRow fills dst with values spread over twenty binades, so that
// any rounding difference — a fused multiply-add, a reordered sum — shows
// up in the low bits. With probability zeroP an entry is +0 or −0 instead.
func randKernelRow(rng *rand.Rand, dst []float64, zeroP float64) {
	for i := range dst {
		switch r := rng.Float64(); {
		case r < zeroP/2:
			dst[i] = 0
		case r < zeroP:
			dst[i] = math.Copysign(0, -1)
		default:
			dst[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(20)-10)
		}
	}
}

// sameBits fails unless got and want agree in every bit, so a +0/−0
// mismatch counts.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: %v (%#x) != %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// simdAndGeneric runs f into two copies of init, first with the AVX2
// kernels and then with the generic loops.
func simdAndGeneric(t *testing.T, init []float64, f func(out []float64)) (simd, generic []float64) {
	t.Helper()
	simd = append([]float64(nil), init...)
	generic = append([]float64(nil), init...)
	withAVX2(t, true, func() { f(simd) })
	withAVX2(t, false, func() { f(generic) })
	return simd, generic
}

// Output widths around the kernels' 4- and 16-element steps.
var rankWidths = []int{1, 3, 4, 5, 16, 63, 64, 192}

// Property: the register-blocked product rounds identically with the AVX2
// rank updates and with the generic loops, bit for bit, and both equal the
// one-rank-at-a-time reference. Covered: inner dimensions that leave 4- and
// 1-rank tails after the 8-rank blocks, column windows of a wider packed
// matrix (c0 > 0, stride > n), ±0 coefficients that force the per-rank
// fallback, and both the clearing and the accumulating mode (the latter
// from outputs that include ±0).
func TestMulRowRangeSIMDMatchesGeneric(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this machine")
	}
	rng := rand.New(rand.NewSource(11))
	const m = 3
	for _, n := range rankWidths {
		for _, k := range []int{1, 3, 7, 13, 21, 67} {
			for _, c0 := range []int{0, 5} {
				for _, zero := range []bool{true, false} {
					bstride := c0 + n + 3
					a := make([]float64, m*k)
					b := make([]float64, k*bstride)
					init := make([]float64, m*n)
					randKernelRow(rng, a, 0.1)
					randKernelRow(rng, b, 0.05)
					randKernelRow(rng, init, 0.2)
					simd, generic := simdAndGeneric(t, init, func(out []float64) {
						mulRowRange(out, a, b, 0, m, k, n, bstride, c0, zero)
					})
					what := fmt.Sprintf("mulRowRange n=%d k=%d c0=%d zero=%v", n, k, c0, zero)
					sameBits(t, what+" SIMD vs generic", simd, generic)

					ref := append([]float64(nil), init...)
					for i := 0; i < m; i++ {
						row := ref[i*n : (i+1)*n]
						if zero {
							for j := range row {
								row[j] = 0
							}
						}
						for p := 0; p < k; p++ {
							av := a[i*k+p]
							if av == 0 {
								continue
							}
							for j := range row {
								row[j] = row[j] + float64(av*b[p*bstride+c0+j])
							}
						}
					}
					sameBits(t, what+" generic vs one-rank reference", generic, ref)
				}
			}
		}
	}
}

// Property: LinearInto — the QKV, output-projection, feed-forward and
// classifier product — is bit-identical with and without the AVX2 kernels
// on a column window [c0, c0+n) of a wider packed weight matrix, with and
// without bias, on input rows containing ±0.
func TestLinearIntoSIMDMatchesGeneric(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this machine")
	}
	rng := rand.New(rand.NewSource(12))
	for _, n := range rankWidths {
		for _, shape := range [][2]int{{1, 13}, {6, 67}} {
			rows, in := shape[0], shape[1]
			c0 := 9
			wcols := c0 + n + 7
			x := make([]float64, rows*in)
			w := make([]float64, in*wcols)
			bias := make([]float64, wcols)
			randKernelRow(rng, x, 0.15)
			randKernelRow(rng, w, 0)
			randKernelRow(rng, bias, 0.1)
			for _, b := range [][]float64{nil, bias} {
				simd, generic := simdAndGeneric(t, make([]float64, rows*n), func(out []float64) {
					LinearInto(out, x, rows, in, w, wcols, c0, c0+n, b)
				})
				sameBits(t, fmt.Sprintf("LinearInto n=%d rows=%d in=%d bias=%v", n, rows, in, b != nil), simd, generic)
			}
		}
	}
}

// Property: FusedAttentionCore, whose weights×V product runs through the
// rank updates with n = HeadDim, is bit-identical with and without the AVX2
// kernels. The mask removes some positions (−Inf), fully masks one row, and
// pushes others so far down that their softmax weight underflows to an
// exact 0 without being masked.
func TestFusedAttentionCoreSIMDMatchesGeneric(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this machine")
	}
	rng := rand.New(rand.NewSource(13))
	ws := NewWorkspace()
	neg := math.Inf(-1)
	for _, headDim := range rankWidths {
		for _, lkv := range []int{7, 19} {
			const lq, heads = 6, 2
			h := heads * headDim
			proj := make([]float64, lkv*3*h)
			randKernelRow(rng, proj, 0.02)
			sh := AttnShape{
				Lq: lq, Lkv: lkv, Heads: heads, HeadDim: headDim,
				QOff: 0, QStride: 3 * h, KOff: h, VOff: 2 * h, KVStride: 3 * h,
				Scale: 1 / math.Sqrt(float64(headDim)),
			}
			mask := New(lq, lkv)
			for i := 0; i < lq; i++ {
				row := mask.Row(i)
				for j := range row {
					switch {
					case i == 2:
						row[j] = neg // fully masked row
					case rng.Intn(3) == 0:
						row[j] = neg
					case rng.Intn(4) == 0:
						row[j] = -1e4 // weight underflows to exactly 0
					}
				}
			}
			for _, mk := range []*Tensor{nil, mask} {
				simd, generic := simdAndGeneric(t, make([]float64, lq*h), func(out []float64) {
					FusedAttentionCore(ws, out, proj, proj, sh, mk)
					ws.Reset()
				})
				what := fmt.Sprintf("FusedAttentionCore headDim=%d lkv=%d masked=%v", headDim, lkv, mk != nil)
				sameBits(t, what, simd, generic)
				if mk != nil {
					for c := 0; c < h; c++ {
						if got := simd[2*h+c]; math.Float64bits(got) != 0 {
							t.Fatalf("%s: fully masked row output[%d] = %v, want +0", what, c, got)
						}
					}
				}
			}
		}
	}
}

// The AVX2 rank updates take their coefficients through a stack array, so
// they must not allocate.
func TestRankUpdateKernelAllocs(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this machine")
	}
	rng := rand.New(rand.NewSource(14))
	const n = 67
	x := make([]float64, 8*n)
	y := make([]float64, n)
	randKernelRow(rng, x, 0)
	c := [8]float64{0.5, -1, 2, 0.25, 3, -0.125, 1, 4}
	allocs := testing.AllocsPerRun(50, func() {
		axpy(1.5, x, y)
		axpy4((*[4]float64)(c[:4]), x, n, y)
		axpy8(&c, x, n, y)
	})
	if allocs != 0 {
		t.Fatalf("rank updates allocate %.1f/op, want 0", allocs)
	}
}
