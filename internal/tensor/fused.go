// Fused NoGrad kernels for the inference fast path. Each primitive here
// replicates, element for element, the floating-point operation sequence of
// the composed autograd ops it replaces (MatMul+AddRowVector,
// MatMulNT+Scale+SoftmaxRows+MatMul, Add+LayerNorm, ...), so fast-path
// outputs are bit-exact against the slow path — enforced by the fast-path
// tests in internal/nn and internal/adtd. Bit-exactness needs every product
// rounded before it is added: Go may contract x*y + z into an FMA (arm64
// does), so the kernels wrap each product in an explicit float64
// conversion, the spec's rounding point, and the AVX2 rank updates
// (simd_amd64.s) use separate multiplies and adds in the same order.
// The wins come from everything around the arithmetic: no per-op tensor and
// graph bookkeeping, no materialized per-head score matrices or column
// slices, workspace scratch instead of zeroed arena buffers, and dot
// products skipped outright for -Inf-masked attention positions.
package tensor

import (
	"math"
	"sync/atomic"
)

var fastPathOff atomic.Bool // zero value = enabled

// SetFastPath toggles the fused NoGrad kernels globally. The fast path is
// on by default; turning it off forces every forward through the composed
// autograd ops, which is useful for bit-exactness tests and as a safety
// valve. Safe to call concurrently.
func SetFastPath(on bool) { fastPathOff.Store(!on) }

// FastPathEnabled reports whether the fused kernels may be selected.
func FastPathEnabled() bool { return !fastPathOff.Load() }

// NoGrad reports whether none of the given tensors require grad; nil
// entries are allowed and ignored. It is the per-call eligibility check for
// the fast path.
func NoGrad(ts ...*Tensor) bool {
	for _, t := range ts {
		if t != nil && t.requiresGrad {
			return false
		}
	}
	return true
}

// InferenceResult builds an op-output tensor for the fast path: its buffer
// is arena-backed (contents UNSPECIFIED — the caller must fully overwrite
// it) and the given parents are recorded so ReleaseGraph can walk and
// recycle fused graphs exactly like composed ones. No backward closure is
// attached; it panics if any parent requires grad.
func InferenceResult(rows, cols int, parents ...*Tensor) *Tensor {
	for _, p := range parents {
		if p.requiresGrad {
			panic("tensor: InferenceResult with a grad-requiring parent")
		}
	}
	data, pooled := allocDataDirty(rows * cols)
	return &Tensor{Rows: rows, Cols: cols, Data: data, pooled: pooled, parents: parents}
}

// allocDataDirty is allocData without the zeroing pass; fused kernels
// overwrite every element of their outputs, so clearing recycled buffers
// would be pure overhead.
func allocDataDirty(n int) ([]float64, bool) {
	if n < 1<<arenaMinClass || n > 1<<arenaMaxClass || !arenaEnabled.Load() {
		return make([]float64, n), false
	}
	c := sizeClass(n)
	if p, _ := arenaPools[c].Get().(*[]float64); p != nil {
		return (*p)[:n], true
	}
	return make([]float64, n, 1<<c), true
}

// axpy4 computes y += c[0]*x0 + c[1]*x1 + c[2]*x2 + c[3]*x3 elementwise, where
// rank r reads x_r = b[r*stride : r*stride+len(y)], as one left-associative
// chain per element. Each product is wrapped in an explicit float64
// conversion, which the Go spec defines as a rounding point, so no
// architecture may contract a multiply-add into an FMA (arm64 otherwise
// does); every element then sees exactly the rounding sequence of four
// successive axpy calls — which is what keeps the register-blocked kernels
// bit-exact against the one-rank-at-a-time reference. With AVX2 the leading
// multiple of four elements runs in axpy4Asm, which performs the same
// unfused multiply-then-add sequence four lanes at a time.
func axpy4(c *[4]float64, b []float64, stride int, y []float64) {
	n := len(y)
	// Slicing every rank up front is also the bounds check for axpy4Asm.
	x0, x1, x2, x3 := b[:n], b[stride:stride+n], b[2*stride:2*stride+n], b[3*stride:3*stride+n]
	j := 0
	if haveAVX2 && n >= 4 {
		j = n &^ 3
		axpy4Asm(c, &x0[0], stride, &y[0], j)
	}
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	for ; j < n; j++ {
		y[j] = y[j] + float64(c0*x0[j]) + float64(c1*x1[j]) + float64(c2*x2[j]) + float64(c3*x3[j])
	}
}

// axpy8 is two fused axpy4 steps: y += Σ c[r]*x_r over eight ranks at
// stride, one left-associative chain per element — bitwise identical to
// eight successive axpy calls, with half the passes over y.
func axpy8(c *[8]float64, b []float64, stride int, y []float64) {
	n := len(y)
	x0, x1, x2, x3 := b[:n], b[stride:stride+n], b[2*stride:2*stride+n], b[3*stride:3*stride+n]
	x4, x5, x6, x7 := b[4*stride:4*stride+n], b[5*stride:5*stride+n], b[6*stride:6*stride+n], b[7*stride:7*stride+n]
	j := 0
	if haveAVX2 && n >= 4 {
		j = n &^ 3
		axpy8Asm(c, &x0[0], stride, &y[0], j)
	}
	c0, c1, c2, c3, c4, c5, c6, c7 := c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
	for ; j < n; j++ {
		y[j] = y[j] + float64(c0*x0[j]) + float64(c1*x1[j]) + float64(c2*x2[j]) + float64(c3*x3[j]) +
			float64(c4*x4[j]) + float64(c5*x5[j]) + float64(c6*x6[j]) + float64(c7*x7[j])
	}
}

// mulRowRange computes out[lo:hi) rows of A(m×k) × B, where B's rows have
// stride bstride and the product reads B columns [c0, c0+n). When zero is
// set the output rows are cleared first (out =), otherwise accumulated
// (out +=). Ranks with a zero A coefficient are skipped — exactly as the
// scalar kernel does — because adding a +0.0 term is not a bitwise no-op
// for -0.0 outputs; a rank block containing any zero falls back to the
// scalar order for those ranks.
func mulRowRange(out, a, b []float64, lo, hi, k, n, bstride, c0 int, zero bool) {
	for i := lo; i < hi; i++ {
		orow := out[i*n : (i+1)*n]
		if zero {
			for x := range orow {
				orow[x] = 0
			}
		}
		arow := a[i*k : (i+1)*k]
		p := 0
		for ; p+8 <= k; p += 8 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			a4, a5, a6, a7 := arow[p+4], arow[p+5], arow[p+6], arow[p+7]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 || a4 == 0 || a5 == 0 || a6 == 0 || a7 == 0 {
				for q := p; q < p+8; q++ {
					if av := arow[q]; av != 0 {
						axpy(av, b[q*bstride+c0:q*bstride+c0+n], orow)
					}
				}
				continue
			}
			axpy8((*[8]float64)(arow[p:p+8]), b[p*bstride+c0:], bstride, orow)
		}
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				for q := p; q < p+4; q++ {
					if av := arow[q]; av != 0 {
						axpy(av, b[q*bstride+c0:q*bstride+c0+n], orow)
					}
				}
				continue
			}
			axpy4((*[4]float64)(arow[p:p+4]), b[p*bstride+c0:], bstride, orow)
		}
		for ; p < k; p++ {
			if av := arow[p]; av != 0 {
				axpy(av, b[p*bstride+c0:p*bstride+c0+n], orow)
			}
		}
	}
}

// LinearInto computes dst = x(rows×in) · W[:, c0:c1) + bias[c0:c1), where W
// is in×wcols row-major and bias (length wcols) may be nil. Writing only a
// column range of a packed weight matrix is what lets attention project Q,
// K and V from one fused [WQ|WK|WV] matrix. Bit-exact against
// AddRowVector(MatMul(x, W'), b') on the corresponding column slice.
func LinearInto(dst, x []float64, rows, in int, w []float64, wcols, c0, c1 int, bias []float64) {
	n := c1 - c0
	parallelRows(rows, in*n, func(lo, hi int) {
		mulRowRange(dst, x, w, lo, hi, in, n, wcols, c0, true)
		if bias != nil {
			for i := lo; i < hi; i++ {
				drow := dst[i*n : (i+1)*n]
				for j := range drow {
					drow[j] += bias[c0+j]
				}
			}
		}
	})
}

// AttnShape describes the layout of packed projections for
// FusedAttentionCore. Query row i's head-h slice lives at
// qp[i*QStride+QOff+h*HeadDim : ... +HeadDim]; key and value rows likewise
// in kvp at KOff/VOff. With self-attention on a packed [Q|K|V] projection,
// qp == kvp, QOff=0, KOff=H, VOff=2H and both strides are 3H.
type AttnShape struct {
	Lq, Lkv, Heads, HeadDim int
	QOff, QStride           int
	KOff, VOff, KVStride    int
	Scale                   float64
}

// FusedAttentionCore computes multi-head scaled dot-product attention into
// dst (Lq × Heads*HeadDim, head h in columns [h*HeadDim,(h+1)*HeadDim)),
// streaming one score row at a time instead of materializing per-head
// Lq×Lkv score matrices. mask (Lq × Lkv additive, may be nil) follows
// SoftmaxRows semantics: -Inf removes a position — here the position's dot
// product is skipped entirely, which on the content tower's per-column
// masks removes most of the score work — and a fully masked row yields
// zeros.
// Bit-exact against SliceCols+MatMulNT+Scale+SoftmaxRows+MatMul+ConcatCols.
func FusedAttentionCore(ws *Workspace, dst, qp, kvp []float64, sh AttnShape, mask *Tensor) {
	hd := sh.Heads * sh.HeadDim
	srow := ws.Take(sh.Lkv)
	for h := 0; h < sh.Heads; h++ {
		qOff := sh.QOff + h*sh.HeadDim
		kOff := sh.KOff + h*sh.HeadDim
		vOff := sh.VOff + h*sh.HeadDim
		for i := 0; i < sh.Lq; i++ {
			qrow := qp[i*sh.QStride+qOff : i*sh.QStride+qOff+sh.HeadDim]
			var mrow []float64
			if mask != nil {
				mrow = mask.Row(i)
			}
			var maxv float64
			if sh.HeadDim == 16 {
				maxv = scoreRow16(srow, qrow, kvp, mrow, kOff, sh.KVStride, sh.Lkv, sh.Scale)
			} else {
				maxv = scoreRowGeneric(srow, qrow, kvp, mrow, kOff, sh.KVStride, sh.Lkv, sh.HeadDim, sh.Scale)
			}
			drow := dst[i*hd+h*sh.HeadDim : i*hd+(h+1)*sh.HeadDim]
			if math.IsInf(maxv, -1) {
				// Entire row masked: SoftmaxRows emits zeros, so AV is zero.
				for j := range drow {
					drow[j] = 0
				}
				continue
			}
			sum := 0.0
			for j := 0; j < sh.Lkv; j++ {
				e := math.Exp(srow[j] - maxv)
				srow[j] = e
				sum += e
			}
			if sum == 0 {
				for j := range drow {
					drow[j] = 0
				}
				continue
			}
			// Normalize in place exactly as SoftmaxRows does, then run the
			// weights×V product through the register-blocked matmul kernel
			// (one output row, B columns [vOff, vOff+HeadDim)); masked
			// positions have weight exactly 0 and are skipped, as the
			// composed MatMul's zero-skip does.
			inv := 1.0 / sum
			for j := 0; j < sh.Lkv; j++ {
				srow[j] *= inv
			}
			mulRowRange(drow, srow, kvp, 0, 1, sh.Lkv, sh.HeadDim, sh.KVStride, vOff, true)
		}
	}
}

// scoreRowGeneric fills srow with the scaled, masked q·k scores of one query
// row against all keys and returns the row max. -Inf-masked positions skip
// the dot entirely (their srow entry is -Inf, which the exp pass maps to an
// exact 0 weight). The dot uses the same 4-partial accumulation as dot().
func scoreRowGeneric(srow, qrow, kvp, mrow []float64, kOff, stride, lkv, headDim int, scale float64) float64 {
	negInf := math.Inf(-1)
	maxv := negInf
	for j := 0; j < lkv; j++ {
		mv := 0.0
		if mrow != nil {
			mv = mrow[j]
			if math.IsInf(mv, -1) {
				srow[j] = negInf
				continue
			}
		}
		krow := kvp[j*stride+kOff : j*stride+kOff+headDim]
		var s0, s1, s2, s3 float64
		d := 0
		for ; d+4 <= headDim; d += 4 {
			s0 += float64(qrow[d] * krow[d])
			s1 += float64(qrow[d+1] * krow[d+1])
			s2 += float64(qrow[d+2] * krow[d+2])
			s3 += float64(qrow[d+3] * krow[d+3])
		}
		for ; d < headDim; d++ {
			s0 += float64(qrow[d] * krow[d])
		}
		v := float64((s0+s1+s2+s3)*scale) + mv
		srow[j] = v
		if v > maxv {
			maxv = v
		}
	}
	return maxv
}

// scoreRow16 is scoreRowGeneric specialized to 16-wide heads (the repro
// config): the query row is held in locals and the four partial sums are
// fully unrolled in the same strided order as the generic loop, so each
// partial sees an identical left-associative accumulation sequence. (The
// generic loop seeds each partial with +0.0, which the unrolled chain
// omits; that can only flip the sign of a zero-valued partial, and a zero's
// sign never survives exp(v - max) downstream.)
func scoreRow16(srow, qrow, kvp, mrow []float64, kOff, stride, lkv int, scale float64) float64 {
	q0, q1, q2, q3 := qrow[0], qrow[1], qrow[2], qrow[3]
	q4, q5, q6, q7 := qrow[4], qrow[5], qrow[6], qrow[7]
	q8, q9, q10, q11 := qrow[8], qrow[9], qrow[10], qrow[11]
	q12, q13, q14, q15 := qrow[12], qrow[13], qrow[14], qrow[15]
	negInf := math.Inf(-1)
	maxv := negInf
	for j := 0; j < lkv; j++ {
		mv := 0.0
		if mrow != nil {
			mv = mrow[j]
			if math.IsInf(mv, -1) {
				srow[j] = negInf
				continue
			}
		}
		base := j*stride + kOff
		k := kvp[base : base+16 : base+16]
		s0 := float64(q0*k[0]) + float64(q4*k[4]) + float64(q8*k[8]) + float64(q12*k[12])
		s1 := float64(q1*k[1]) + float64(q5*k[5]) + float64(q9*k[9]) + float64(q13*k[13])
		s2 := float64(q2*k[2]) + float64(q6*k[6]) + float64(q10*k[10]) + float64(q14*k[14])
		s3 := float64(q3*k[3]) + float64(q7*k[7]) + float64(q11*k[11]) + float64(q15*k[15])
		v := float64((s0+s1+s2+s3)*scale) + mv
		srow[j] = v
		if v > maxv {
			maxv = v
		}
	}
	return maxv
}

// FusedAddLayerNormInto computes dst = LayerNorm(a + b) rowwise, with b nil
// meaning plain LayerNorm(a). dst may alias a or b. Bit-exact against
// LayerNorm(Add(a, b), gamma, beta, eps).
func FusedAddLayerNormInto(dst, a, b, gamma, beta []float64, rows, cols int, eps float64) {
	n := float64(cols)
	for i := 0; i < rows; i++ {
		arow := a[i*cols : (i+1)*cols]
		drow := dst[i*cols : (i+1)*cols]
		var brow []float64
		if b != nil {
			brow = b[i*cols : (i+1)*cols]
			for j, v := range arow {
				drow[j] = v + brow[j]
			}
		} else if &drow[0] != &arow[0] {
			copy(drow, arow)
		}
		m := 0.0
		for _, v := range drow {
			m += v
		}
		m /= n
		vsum := 0.0
		for _, v := range drow {
			d := v - m
			vsum += d * d
		}
		inv := 1 / math.Sqrt(vsum/n+eps)
		for j, v := range drow {
			drow[j] = (v-m)*inv*gamma[j] + beta[j]
		}
	}
}

// FusedGELUInPlace applies the tanh-approximation GELU elementwise,
// bit-exact against GELU.
func FusedGELUInPlace(x []float64) {
	const c = 0.7978845608028654 // sqrt(2/π)
	for i, v := range x {
		inner := c * (v + 0.044715*v*v*v)
		x[i] = 0.5 * v * (1 + math.Tanh(inner))
	}
}

// FusedReLUInPlace applies max(0, x) elementwise, bit-exact against ReLU
// (negative values, -0.0 and NaN all map to +0.0, as the slow path's
// zero-initialized output does).
func FusedReLUInPlace(x []float64) {
	for i, v := range x {
		if v > 0 {
			continue
		}
		x[i] = 0
	}
}

// MeanPoolRowsInto writes the column means of x's rows [lo, hi) into dst
// (length cols), bit-exact against MeanRows(SliceRows(x, lo, hi)).
func MeanPoolRowsInto(dst, x []float64, cols, lo, hi int) {
	for j := range dst[:cols] {
		dst[j] = 0
	}
	for i := lo; i < hi; i++ {
		row := x[i*cols : (i+1)*cols]
		for j, v := range row {
			dst[j] += v
		}
	}
	inv := 1.0 / float64(hi-lo)
	for j := range dst[:cols] {
		dst[j] *= inv
	}
}
