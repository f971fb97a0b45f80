package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// withAVX2 forces the SIMD/generic kernel choice (fp64 and int8 alike) for
// the duration of f. Serial tests only (haveAVX2 is package state).
func withAVX2(t *testing.T, on bool, f func()) {
	t.Helper()
	old := haveAVX2
	haveAVX2 = on
	defer func() { haveAVX2 = old }()
	f()
}

// Property: quantize→dequantize round-trips every element within half a
// grid step: |v − q·scale| ≤ absmax/254.
func TestQuantizeRowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		src := make([]float64, n)
		maxv := 0.0
		for i := range src {
			src[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			if a := math.Abs(src[i]); a > maxv {
				maxv = a
			}
		}
		dst := make([]int8, padLane(n))
		scale := quantizeRow(dst, src)
		bound := maxv/254 + 1e-300
		for i, v := range src {
			if err := math.Abs(v - float64(dst[i])*scale); err > bound {
				t.Fatalf("trial %d elem %d: round-trip error %g > %g (v=%g q=%d scale=%g)",
					trial, i, err, bound, v, dst[i], scale)
			}
		}
		for i := n; i < len(dst); i++ {
			if dst[i] != 0 {
				t.Fatalf("trial %d: padding byte %d not zeroed", trial, i)
			}
		}
	}
	// Degenerate rows: all-zero input must yield scale 0 and zero bytes.
	dst := make([]int8, quantLane)
	if s := quantizeRow(dst, make([]float64, 5)); s != 0 {
		t.Fatalf("zero row: scale %g != 0", s)
	}
}

// Property: PackQuantMatrix round-trips every weight within half a grid
// step of its output column's absmax, and pads rows with zeros.
func TestPackQuantMatrixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in, out := 37, 11
	w := make([]float64, in*out)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	qm := PackQuantMatrix(w, in, out)
	if qm.Stride%quantLane != 0 || qm.Stride < in {
		t.Fatalf("bad stride %d for in=%d", qm.Stride, in)
	}
	for o := 0; o < out; o++ {
		maxv := 0.0
		for i := 0; i < in; i++ {
			if a := math.Abs(w[i*out+o]); a > maxv {
				maxv = a
			}
		}
		for i := 0; i < in; i++ {
			got := float64(qm.W[o*qm.Stride+i]) * qm.Scale[o]
			if err := math.Abs(w[i*out+o] - got); err > maxv/254+1e-12 {
				t.Fatalf("col %d row %d: round-trip error %g > %g", o, i, err, maxv/254)
			}
		}
		for i := in; i < qm.Stride; i++ {
			if qm.W[o*qm.Stride+i] != 0 {
				t.Fatalf("col %d: padding at %d not zero", o, i)
			}
		}
	}
}

// fastExp must stay within 5e-7 relative error of math.Exp over the
// softmax/GELU range, and clamp cleanly at the extremes.
func TestFastExp(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		x := rng.Float64()*730 - 700 // [-700, 30]
		want := math.Exp(x)
		got := fastExp(x)
		if rel := math.Abs(got-want) / want; rel > 5e-7 {
			t.Fatalf("fastExp(%g) rel err %g > 5e-7", x, rel)
		}
	}
	// Below -708 results flush to zero (the bit-trick cannot represent
	// denormals); softmax arguments never care.
	if fastExp(-709) != 0 || fastExp(-1000) != 0 {
		t.Fatal("fastExp below -708 must flush to 0")
	}
	if !math.IsInf(fastExp(1000), 1) {
		t.Fatal("fastExp(1000) != +Inf")
	}
	if fastExp(0) != 1 {
		t.Fatal("fastExp(0) != 1")
	}
	for i := 0; i < 2000; i++ {
		x := rng.Float64()*40 - 20
		if rel := math.Abs(fastTanh(x) - math.Tanh(x)); rel > 5e-7 {
			t.Fatalf("fastTanh(%g) err %g > 5e-7", x, rel)
		}
	}
}

// Property: LinearQuantInto tracks LinearInto within the quantization
// tolerance — per element, the error is bounded by the product of the
// activation and weight grid steps accumulated over the inner dimension.
// The empirical bound below (1% of the output magnitude scale) holds with
// a wide margin for both kernel implementations and both bias modes.
func TestLinearQuantIntoTolerance(t *testing.T) {
	for _, asm := range []bool{false, true} {
		if asm && !haveAVX2 {
			continue
		}
		withAVX2(t, asm, func() {
			rng := rand.New(rand.NewSource(5))
			ws := NewWorkspace()
			for _, shape := range [][3]int{{7, 64, 192}, {3, 150, 30}, {12, 86, 3}, {1, 16, 1}} {
				rows, in, out := shape[0], shape[1], shape[2]
				x := make([]float64, rows*in)
				w := make([]float64, in*out)
				bias := make([]float64, out)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				for i := range w {
					w[i] = rng.NormFloat64()
				}
				for i := range bias {
					bias[i] = rng.NormFloat64()
				}
				want := make([]float64, rows*out)
				LinearInto(want, x, rows, in, w, out, 0, out, bias)
				got := make([]float64, rows*out)
				qm := PackQuantMatrix(w, in, out)
				LinearQuantInto(ws, got, x, rows, in, qm, 0, out, bias)
				ws.Reset()
				scale := 0.0
				for _, v := range want {
					if a := math.Abs(v); a > scale {
						scale = a
					}
				}
				for i := range want {
					if err := math.Abs(got[i] - want[i]); err > 0.01*scale {
						t.Fatalf("asm=%v shape %v elem %d: |Δ|=%g > 1%% of %g (got %g want %g)",
							asm, shape, i, err, scale, got[i], want[i])
					}
				}
			}
		})
	}
}

// Column ranges of a quantized pack must match the same range of the fp64
// kernel — the packed-QKV access pattern.
func TestLinearQuantIntoColumnRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ws := NewWorkspace()
	rows, in, out := 5, 64, 192
	x := make([]float64, rows*in)
	w := make([]float64, in*out)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	qm := PackQuantMatrix(w, in, out)
	full := make([]float64, rows*out)
	LinearQuantInto(ws, full, x, rows, in, qm, 0, out, nil)
	for _, r := range [][2]int{{64, 192}, {0, 64}, {128, 192}} {
		n := r[1] - r[0]
		got := make([]float64, rows*n)
		LinearQuantInto(ws, got, x, rows, in, qm, r[0], r[1], nil)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				if got[i*n+j] != full[i*out+r[0]+j] {
					t.Fatalf("range %v: element (%d,%d) differs from full product", r, i, j)
				}
			}
		}
	}
	ws.Reset()
}

// buildAttnInputs makes a random packed self-attention projection and shape.
func buildAttnInputs(rng *rand.Rand, lq, lkv, heads, headDim int) ([]float64, AttnShape) {
	h := heads * headDim
	proj := make([]float64, lkv*3*h)
	for i := range proj {
		proj[i] = rng.NormFloat64()
	}
	sh := AttnShape{
		Lq: lq, Lkv: lkv, Heads: heads, HeadDim: headDim,
		QOff: 0, QStride: 3 * h, KOff: h, VOff: 2 * h, KVStride: 3 * h,
		Scale: 1 / math.Sqrt(float64(headDim)),
	}
	return proj, sh
}

// blockMask builds a run-structured additive mask like the batched Phase-2
// masks: row i may attend to [0, meta) and to its own block of width span.
func blockMask(lq, lkv, meta, span int) *Tensor {
	m := New(lq, lkv)
	neg := math.Inf(-1)
	for i := 0; i < lq; i++ {
		row := m.Row(i)
		blk := meta + (i/span)*span
		for j := meta; j < lkv; j++ {
			if j < blk || j >= blk+span {
				row[j] = neg
			}
		}
	}
	return m
}

// Property: QuantAttentionCore tracks FusedAttentionCore within the
// documented tolerance (attention outputs are convex combinations of V
// rows, so the error budget is absolute against V's magnitude scale),
// masked and maskless, with both kernel implementations.
func TestQuantAttentionCoreTolerance(t *testing.T) {
	for _, asm := range []bool{false, true} {
		if asm && !haveAVX2 {
			continue
		}
		withAVX2(t, asm, func() {
			rng := rand.New(rand.NewSource(7))
			ws := NewWorkspace()
			for _, tc := range []struct {
				lq, lkv, heads, headDim int
				mask                    *Tensor
			}{
				{128, 128, 4, 16, nil},
				{40, 104, 4, 16, blockMask(40, 104, 24, 8)},
				{9, 17, 2, 16, blockMask(9, 17, 5, 3)},
				{6, 30, 1, 32, nil},
			} {
				proj, sh := buildAttnInputs(rng, tc.lq, tc.lkv, tc.heads, tc.headDim)
				h := tc.heads * tc.headDim
				want := make([]float64, tc.lq*h)
				FusedAttentionCore(ws, want, proj, proj, sh, tc.mask)
				got := make([]float64, tc.lq*h)
				if !QuantAttentionCore(ws, got, proj, proj, sh, tc.mask) {
					t.Fatalf("QuantAttentionCore refused supported shape %+v", tc)
				}
				ws.Reset()
				vmax := 0.0
				for _, v := range proj {
					if a := math.Abs(v); a > vmax {
						vmax = a
					}
				}
				worst := 0.0
				for i := range want {
					if err := math.Abs(got[i] - want[i]); err > worst {
						worst = err
					}
				}
				// Documented tolerance: 2% of the value magnitude scale.
				if worst > 0.02*vmax {
					t.Fatalf("asm=%v case %+v: max |Δ| %g > %g", asm, tc, worst, 0.02*vmax)
				}
			}
		})
	}
}

// A fully masked row must produce exact zeros, matching the fp64 core.
func TestQuantAttentionCoreFullyMaskedRow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ws := NewWorkspace()
	proj, sh := buildAttnInputs(rng, 4, 8, 2, 16)
	mask := New(4, 8)
	neg := math.Inf(-1)
	for j := 0; j < 8; j++ {
		mask.Row(2)[j] = neg
	}
	h := sh.Heads * sh.HeadDim
	got := make([]float64, 4*h)
	for i := range got {
		got[i] = math.NaN() // must be overwritten
	}
	if !QuantAttentionCore(ws, got, proj, proj, sh, mask) {
		t.Fatal("refused supported shape")
	}
	for c := 0; c < h; c++ {
		if got[2*h+c] != 0 {
			t.Fatalf("masked row output[%d] = %g, want 0", c, got[2*h+c])
		}
	}
	ws.Reset()
}

// The envelope must be refused, not mis-computed.
func TestQuantAttentionCoreEnvelope(t *testing.T) {
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(9))
	proj, sh := buildAttnInputs(rng, 2, 4, 1, 8) // headDim 8: not a lane multiple
	if QuantAttentionCore(ws, make([]float64, 2*8), proj, proj, sh, nil) {
		t.Fatal("accepted headDim 8")
	}
	sh.HeadDim = 16
	sh.Lkv = quantMaxLkv + 1
	if QuantAttentionCore(ws, nil, nil, nil, sh, nil) {
		t.Fatal("accepted Lkv beyond the accumulator bound")
	}
}

// maskRuns and alignWindows must partition correctly, including merges.
func TestMaskRunsAndWindows(t *testing.T) {
	neg := math.Inf(-1)
	row := make([]float64, 40)
	for j := range row {
		row[j] = neg
	}
	for _, j := range []int{3, 4, 5, 20, 21, 36, 37, 38, 39} {
		row[j] = 0
	}
	runs := make([]int, 42)
	nr := maskRuns(runs, row, 40)
	want := []int{3, 6, 20, 22, 36, 40}
	if nr != 3 {
		t.Fatalf("run count %d != 3", nr)
	}
	for i, v := range want {
		if runs[i] != v {
			t.Fatalf("runs[%d] = %d, want %d", i, runs[i], v)
		}
	}
	wins := make([]int, 42)
	nw := alignWindows(wins, runs, nr, 48)
	// [3,6)→[0,16), [20,22)→[16,32) merges with the first; [36,40)→[32,48)
	// merges again: one window covering everything.
	if nw != 1 || wins[0] != 0 || wins[1] != 48 {
		t.Fatalf("windows = %v (n=%d), want one [0,48)", wins[:2*nw], nw)
	}
	// Disjoint case.
	nr = maskRuns(runs, nil, 20)
	if nr != 1 || runs[0] != 0 || runs[1] != 20 {
		t.Fatalf("nil mask runs = %v", runs[:2])
	}
	runs[0], runs[1], runs[2], runs[3] = 0, 2, 60, 70
	nw = alignWindows(wins, runs, 2, 80)
	if nw != 2 || wins[0] != 0 || wins[1] != 16 || wins[2] != 48 || wins[3] != 80 {
		t.Fatalf("disjoint windows = %v", wins[:2*nw])
	}
}

// The quantized kernels must be allocation-free once the workspace is warm
// — the PR 3 zero-alloc story extended to the int8 path.
func TestQuantKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ws := NewWorkspace()
	rows, in, out := 16, 64, 192
	x := make([]float64, rows*in)
	w := make([]float64, in*out)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	qm := PackQuantMatrix(w, in, out)
	dst := make([]float64, rows*out)
	proj, sh := buildAttnInputs(rng, 32, 32, 4, 16)
	attnDst := make([]float64, 32*64)
	mask := blockMask(32, 32, 8, 8)
	// Warm the workspace pools.
	LinearQuantInto(ws, dst, x, rows, in, qm, 0, out, nil)
	QuantAttentionCore(ws, attnDst, proj, proj, sh, mask)
	ws.Reset()
	attnAllocs := testing.AllocsPerRun(20, func() {
		QuantAttentionCore(ws, attnDst, proj, proj, sh, mask)
		ws.Reset()
	})
	if attnAllocs > 0 {
		t.Fatalf("QuantAttentionCore allocates %.1f/op with a warm workspace, want 0", attnAllocs)
	}
	// LinearQuantInto pays exactly the parallelRows closure, like the fp64
	// LinearInto — ceiling 1.
	linAllocs := testing.AllocsPerRun(20, func() {
		LinearQuantInto(ws, dst, x, rows, in, qm, 0, out, nil)
		ws.Reset()
	})
	if linAllocs > 1 {
		t.Fatalf("LinearQuantInto allocates %.1f/op with a warm workspace, want ≤ 1", linAllocs)
	}
}
