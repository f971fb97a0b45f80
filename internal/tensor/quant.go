// Int8 quantized kernels for the NoGrad inference fast path. Unlike the
// fp64 kernels in fused.go, which are bit-exact against the composed
// autograd ops, everything here is deliberately *lossy*: weights are
// quantized to int8 with symmetric per-output-row absmax scales at
// pack-build time, activations are quantized per row on the fly, and dot
// products run in int32 via the SIMD kernels in quant_amd64.s (with a pure
// Go fallback on other platforms). The accuracy contract is a documented
// tolerance, pinned by quant_test.go and the adtd accuracy-delta test — see
// DESIGN.md §11.
//
// Selection rules: a quantized kernel may only replace its fp64 counterpart
// when the fast path itself is selectable (FastPathEnabled && NoGrad),
// quantization is requested (Workspace.Quantize, seeded from SetQuantize or
// a per-request override), and QuantizeAvailable reports SIMD support —
// without AVX2 the int8 arithmetic is slower than the fp64 kernels it
// replaces, so the fp64 fast path is kept instead.
package tensor

import (
	"math"
	"sync/atomic"
)

var quantizeOn atomic.Bool

// SetQuantize toggles the process-wide default for int8 quantized
// inference. Off by default; per-request overrides are applied by the
// callers that thread a Workspace (see Workspace.Quantize). Safe to call
// concurrently.
func SetQuantize(on bool) { quantizeOn.Store(on) }

// QuantizeEnabled reports the process-wide quantization default.
func QuantizeEnabled() bool { return quantizeOn.Load() }

// QuantizeAvailable reports whether the SIMD int8 kernels are usable on
// this machine (amd64 with AVX2). When false, requesting quantization is a
// silent no-op: the fp64 fast path runs instead, because scalar int8
// arithmetic is slower than the fp64 kernels.
func QuantizeAvailable() bool { return haveAVX2 }

const (
	// quantLane is the int8 dot kernels' step: row lengths are zero-padded
	// to a multiple of it.
	quantLane = 16
	// quantProbScale is the fixed quantization grid for attention
	// probabilities (14-bit). Softmax weights live in (0, 1] with the row
	// max exactly 1, so the grid needs no dynamic scale; 14 bits keeps the
	// worst-case int32 AV accumulator (127 · quantProbScale · Lkv) inside
	// int32 for Lkv ≤ quantMaxLkv.
	quantProbScale = 16383
	// quantMaxLkv bounds the key/value length of QuantAttentionCore:
	// 127·16383·1024 = 2 130 576 384 < 2³¹.
	quantMaxLkv = 1024
)

// padLane rounds n up to a multiple of quantLane.
func padLane(n int) int { return (n + quantLane - 1) &^ (quantLane - 1) }

// QuantMatrix is an int8 weight pack: the transpose of an in×out fp64
// weight matrix, stored one output row at a time (out × Stride int8,
// Stride = in padded to quantLane with zeros) with a symmetric per-output
// scale (row absmax / 127). The transposed layout turns every output
// column into a contiguous row the int8 dot kernels can stream.
type QuantMatrix struct {
	In, Out int
	Stride  int       // padded In, multiple of quantLane
	W       []int8    // Out × Stride
	Scale   []float64 // per output: dequantization factor absmax/127
}

// PackQuantMatrix quantizes an in×out row-major fp64 weight matrix.
// All-zero (or non-finite) output columns get scale 0 and a zero row, which
// dequantizes to exact zeros.
func PackQuantMatrix(w []float64, in, out int) *QuantMatrix {
	stride := padLane(in)
	qm := &QuantMatrix{
		In: in, Out: out, Stride: stride,
		W: make([]int8, out*stride), Scale: make([]float64, out),
	}
	for o := 0; o < out; o++ {
		maxv := 0.0
		for i := 0; i < in; i++ {
			v := w[i*out+o]
			if v < 0 {
				v = -v
			}
			if v > maxv {
				maxv = v
			}
		}
		if maxv == 0 || maxv > math.MaxFloat64/2 || math.IsNaN(maxv) {
			continue // row stays zero, Scale stays 0
		}
		qm.Scale[o] = maxv / 127
		inv := 127 / maxv
		row := qm.W[o*stride : (o+1)*stride]
		for i := 0; i < in; i++ {
			row[i] = quantVal(w[i*out+o] * inv)
		}
	}
	return qm
}

// quantVal rounds to nearest (ties to even — the ROUNDSD intrinsic, chosen
// over half-away because the branchless single instruction is measurably
// faster in the per-row quantization loops and the grid choice is
// accuracy-neutral) into int8; the input must already be scaled into
// [-127.5, 127.5).
func quantVal(q float64) int8 {
	return int8(int32(math.RoundToEven(q)))
}

// quantizeRow quantizes src into dst (len(dst) ≥ len(src); the tail is
// zero-padded) and returns the dequantization scale absmax/127. An all-zero
// or non-finite row quantizes to zeros with scale 0. math.Abs and the
// rounding in quantVal compile to branchless instructions, keeping the two
// passes tight — this runs per activation row on every quantized forward.
func quantizeRow(dst []int8, src []float64) float64 {
	maxv := 0.0
	for _, v := range src {
		if a := math.Abs(v); a > maxv {
			maxv = a
		}
	}
	for i := len(src); i < len(dst); i++ {
		dst[i] = 0
	}
	if maxv == 0 || maxv > math.MaxFloat64/2 {
		for i := range src {
			dst[i] = 0
		}
		return 0
	}
	inv := 127 / maxv
	for i, v := range src {
		dst[i] = quantVal(v * inv)
	}
	return maxv / 127
}

// dotQuadGeneric is the portable reference for the AVX2 kernel: sums[r] =
// Σ_{k<n} x[k]·w[r·stride+k] for r = 0..3, n a positive multiple of
// quantLane.
func dotQuadGeneric(x, w []int8, stride, n int, sums *[4]int32) {
	var s0, s1, s2, s3 int32
	w1 := w[stride:]
	w2 := w[2*stride:]
	w3 := w[3*stride:]
	for k := 0; k < n; k++ {
		xv := int32(x[k])
		s0 += xv * int32(w[k])
		s1 += xv * int32(w1[k])
		s2 += xv * int32(w2[k])
		s3 += xv * int32(w3[k])
	}
	sums[0], sums[1], sums[2], sums[3] = s0, s1, s2, s3
}

// dotQuadWGeneric is dotQuadGeneric with an int16 left operand (attention
// probabilities against int8 values).
func dotQuadWGeneric(x []int16, w []int8, stride, n int, sums *[4]int32) {
	var s0, s1, s2, s3 int32
	w1 := w[stride:]
	w2 := w[2*stride:]
	w3 := w[3*stride:]
	for k := 0; k < n; k++ {
		xv := int32(x[k])
		s0 += xv * int32(w[k])
		s1 += xv * int32(w1[k])
		s2 += xv * int32(w2[k])
		s3 += xv * int32(w3[k])
	}
	sums[0], sums[1], sums[2], sums[3] = s0, s1, s2, s3
}

// dotOne is the scalar single-row int8 dot for ranges shorter than a quad.
func dotOne(x, w []int8) int32 {
	var s int32
	for k, xv := range x {
		s += int32(xv) * int32(w[k])
	}
	return s
}

// fastExp approximates math.Exp with a degree-6 polynomial on the reduced
// argument and bit-trick 2ᵏ reconstruction; max relative error ≈ 1.7e-7
// over the softmax range (pinned by TestFastExp). Only the quantized
// (lossy) kernels use it — the fp64 fast path keeps math.Exp for
// bit-exactness.
func fastExp(x float64) float64 {
	if x < -708 {
		return 0
	}
	if x > 709 {
		return math.Inf(1)
	}
	const log2e = 1.4426950408889634
	const ln2 = 0.6931471805599453
	k := math.Floor(x*log2e + 0.5)
	f := x - k*ln2
	p := 1.0 + f*(1.0+f*(0.5+f*(1.0/6+f*(1.0/24+f*(1.0/120+f*(1.0/720))))))
	return math.Float64frombits(math.Float64bits(p) + uint64(int64(k))<<52)
}

// expGridGeneric maps each s[j] ≤ maxv onto the fixed softmax grid,
// pq[j] = round(e^(s[j]-maxv) · quantProbScale), returning Σ pq[j]. It is
// fastExp's polynomial inlined by hand — a call per element costs more than
// the arithmetic — with the low cut at the grid's resolution (e^-10.5 ·
// quantProbScale < 0.5 rounds to 0), which also keeps the bit-trick argument
// far from the subnormal range. The AVX2 expGridAsm computes the same values
// four lanes at a time; the two may differ by one grid step at rounding
// boundaries (pinned by TestExpGridAsmMatchesGeneric).
func expGridGeneric(s []float64, maxv float64, pq []int16) int {
	const log2e = 1.4426950408889634
	const ln2 = 0.6931471805599453
	sum := 0
	for j, v := range s {
		x := v - maxv
		if x < -10.5 {
			pq[j] = 0
			continue
		}
		kf := math.Floor(x*log2e + 0.5)
		f := x - kf*ln2
		e := 1.0 + f*(1.0+f*(0.5+f*(1.0/6+f*(1.0/24+f*(1.0/120+f*(1.0/720))))))
		e = math.Float64frombits(math.Float64bits(e) + uint64(int64(kf))<<52)
		p := int16(e*quantProbScale + 0.5)
		pq[j] = p
		sum += int(p)
	}
	return sum
}

// fastTanh is tanh via fastExp (same relative-error class), used by the
// approximate GELU on the quantized path.
func fastTanh(x float64) float64 {
	neg := x < 0
	if neg {
		x = -x
	}
	e := fastExp(-2 * x) // in [0, 1], no overflow for any input
	t := (1 - e) / (1 + e)
	if neg {
		return -t
	}
	return t
}

// FastGELUInPlace is FusedGELUInPlace with the tanh evaluated through
// fastExp (~1e-7 relative error). Selected only on the quantized path,
// where bit-exactness is already traded for speed.
func FastGELUInPlace(x []float64) {
	const c = 0.7978845608028654 // sqrt(2/π)
	for i, v := range x {
		inner := c * (v + 0.044715*v*v*v)
		x[i] = 0.5 * v * (1 + fastTanh(inner))
	}
}

// LinearQuantInto is the int8 counterpart of LinearInto: dst = x(rows×in) ·
// W[:, c0:c1) + bias[c0:c1), where the weight columns come from the
// transposed int8 pack qm (so the column range [c0, c1) is a row range of
// qm.W). Activations are quantized per row with a dynamic absmax scale into
// workspace scratch; each int32 dot dequantizes as
// float64(dot)·xscale·qm.Scale[col] + bias.
func LinearQuantInto(ws *Workspace, dst, x []float64, rows, in int, qm *QuantMatrix, c0, c1 int, bias []float64) {
	n := c1 - c0
	stride := qm.Stride
	xq := ws.TakeI8(rows * stride)
	xs := ws.Take(rows)
	for i := 0; i < rows; i++ {
		xs[i] = quantizeRow(xq[i*stride:(i+1)*stride], x[i*in:(i+1)*in])
	}
	// The int8 dots cost roughly a quarter of the fp64 mul-adds, so scale
	// the row-cost estimate accordingly for the parallel threshold. The
	// quantized activations are read-only across shards; each shard writes
	// only its own dst rows.
	parallelRows(rows, (in*n)/4+1, func(lo, hi int) {
		var sums [4]int32
		for i := lo; i < hi; i++ {
			xrow := xq[i*stride : (i+1)*stride]
			drow := dst[i*n : (i+1)*n]
			xsc := xs[i]
			r := c0
			for ; r+4 <= c1; r += 4 {
				dotQuad(xrow, qm.W[r*stride:(r+3)*stride+stride], stride, stride, &sums)
				d := drow[r-c0 : r-c0+4]
				d[0] = float64(sums[0]) * xsc * qm.Scale[r]
				d[1] = float64(sums[1]) * xsc * qm.Scale[r+1]
				d[2] = float64(sums[2]) * xsc * qm.Scale[r+2]
				d[3] = float64(sums[3]) * xsc * qm.Scale[r+3]
			}
			if r < c1 {
				if c1-c0 >= 4 {
					// Re-run the last full quad so the tail is covered;
					// overlapping outputs are recomputed identically.
					r = c1 - 4
					dotQuad(xrow, qm.W[r*stride:(r+3)*stride+stride], stride, stride, &sums)
					d := drow[r-c0 : r-c0+4]
					d[0] = float64(sums[0]) * xsc * qm.Scale[r]
					d[1] = float64(sums[1]) * xsc * qm.Scale[r+1]
					d[2] = float64(sums[2]) * xsc * qm.Scale[r+2]
					d[3] = float64(sums[3]) * xsc * qm.Scale[r+3]
				} else {
					for ; r < c1; r++ {
						s := dotOne(xrow, qm.W[r*stride:r*stride+stride])
						drow[r-c0] = float64(s) * xsc * qm.Scale[r]
					}
				}
			}
			if bias != nil {
				for j := range drow {
					drow[j] += bias[c0+j]
				}
			}
		}
	})
}

// QuantAttentionCore is the int8 attention core: keys, values and queries
// are quantized per head with dynamic absmax scales, scores run as
// int8×int8 dots, the softmax uses fastExp with probabilities quantized
// onto the fixed 14-bit grid, and the AV product runs as int16×int8 dots
// against a per-head transposed value pack. -Inf mask positions are handled
// as run ranges: score and softmax work only touches allowed runs, and the
// AV dots stream 16-aligned windows around them with the pad slop zeroed.
// Output differs from FusedAttentionCore by the documented quantization
// tolerance (quant_test.go).
//
// Returns false — computing nothing — when the shape is outside the
// envelope: HeadDim not a positive multiple of 16, or Lkv > quantMaxLkv
// (the int32 AV accumulator bound). Callers fall back to the fp64 core.
func QuantAttentionCore(ws *Workspace, dst, qp, kvp []float64, sh AttnShape, mask *Tensor) bool {
	if sh.HeadDim <= 0 || sh.HeadDim%quantLane != 0 || sh.Lkv > quantMaxLkv || sh.Lkv == 0 {
		return false
	}
	hd := sh.Heads * sh.HeadDim
	lkv16 := padLane(sh.Lkv)

	// Per-head int8 keys: key j's head-h row at kq[j*hd+h*HeadDim], scale
	// kqs[h*Lkv+j] — head-major so the score loop walks its head's scales
	// contiguously. Rows of one head are hd apart — the stride the score
	// quads stream.
	kq := ws.TakeI8(sh.Lkv * hd)
	kqs := ws.Take(sh.Lkv * sh.Heads)
	for j := 0; j < sh.Lkv; j++ {
		base := j*sh.KVStride + sh.KOff
		for h := 0; h < sh.Heads; h++ {
			kqs[h*sh.Lkv+j] = quantizeRow(
				kq[j*hd+h*sh.HeadDim:j*hd+(h+1)*sh.HeadDim],
				kvp[base+h*sh.HeadDim:base+(h+1)*sh.HeadDim])
		}
	}

	// Transposed int8 values: head h, output dim c is the contiguous lkv16
	// row vtq[(h*HeadDim+c)*lkv16 : ...], scale vts[h*HeadDim+c]; the zero
	// padding past Lkv contributes nothing to the dots.
	vtq := ws.TakeI8(hd * lkv16)
	vts := ws.Take(hd)
	vcol := ws.Take(sh.Lkv)
	for h := 0; h < sh.Heads; h++ {
		vOff := sh.VOff + h*sh.HeadDim
		for c := 0; c < sh.HeadDim; c++ {
			for j := 0; j < sh.Lkv; j++ {
				vcol[j] = kvp[j*sh.KVStride+vOff+c]
			}
			row := h*sh.HeadDim + c
			vts[row] = quantizeRow(vtq[row*lkv16:(row+1)*lkv16], vcol)
		}
	}

	srow := ws.Take(sh.Lkv)
	pq := ws.TakeI16(lkv16)
	qq := ws.TakeI8(sh.HeadDim)
	// Allowed runs and their 16-aligned, merged AV windows, as flattened
	// [lo, hi) pairs. A maskless row is the single run [0, Lkv).
	ranges := ws.TakeInt(2 * (sh.Lkv/2 + 1))
	windows := ws.TakeInt(2 * (sh.Lkv/2 + 1))
	negInf := math.Inf(-1)

	for i := 0; i < sh.Lq; i++ {
		var mrow []float64
		if mask != nil {
			mrow = mask.Row(i)
		}
		nr := maskRuns(ranges, mrow, sh.Lkv)
		if nr == 0 {
			// Fully masked row: softmax yields zeros, so AV is zero.
			for h := 0; h < sh.Heads; h++ {
				drow := dst[i*hd+h*sh.HeadDim : i*hd+(h+1)*sh.HeadDim]
				for c := range drow {
					drow[c] = 0
				}
			}
			continue
		}
		nw := alignWindows(windows, ranges, nr, lkv16)
		// Zero every in-window probability once per query row; the per-head
		// fill below only writes allowed positions, so masked positions
		// inside a window stay zero for every head.
		for w := 0; w < nw; w++ {
			zq := pq[windows[2*w]:windows[2*w+1]]
			for k := range zq {
				zq[k] = 0
			}
		}

		for h := 0; h < sh.Heads; h++ {
			qOff := sh.QOff + h*sh.HeadDim
			qsc := quantizeRow(qq, qp[i*sh.QStride+qOff:i*sh.QStride+qOff+sh.HeadDim])
			qkScale := qsc * sh.Scale
			ksh := kqs[h*sh.Lkv : (h+1)*sh.Lkv]
			maxv := negInf
			for r := 0; r < nr; r++ {
				lo, hi := ranges[2*r], ranges[2*r+1]
				j := lo
				var sums [4]int32
				for ; j+4 <= hi; j += 4 {
					dotQuad(qq, kq[j*hd+h*sh.HeadDim:(j+3)*hd+h*sh.HeadDim+sh.HeadDim], hd, sh.HeadDim, &sums)
					for t := 0; t < 4; t++ {
						v := float64(sums[t]) * qkScale * ksh[j+t]
						if mrow != nil {
							v += mrow[j+t]
						}
						srow[j+t] = v
						if v > maxv {
							maxv = v
						}
					}
				}
				if j < hi {
					if hi-lo >= 4 {
						j = hi - 4 // overlap: recompute the last full quad
						dotQuad(qq, kq[j*hd+h*sh.HeadDim:(j+3)*hd+h*sh.HeadDim+sh.HeadDim], hd, sh.HeadDim, &sums)
						for t := 0; t < 4; t++ {
							v := float64(sums[t]) * qkScale * ksh[j+t]
							if mrow != nil {
								v += mrow[j+t]
							}
							srow[j+t] = v
							if v > maxv {
								maxv = v
							}
						}
					} else {
						for ; j < hi; j++ {
							s := dotOne(qq, kq[j*hd+h*sh.HeadDim:j*hd+h*sh.HeadDim+sh.HeadDim])
							v := float64(s) * qkScale * ksh[j]
							if mrow != nil {
								v += mrow[j]
							}
							srow[j] = v
							if v > maxv {
								maxv = v
							}
						}
					}
				}
			}
			drow := dst[i*hd+h*sh.HeadDim : i*hd+(h+1)*sh.HeadDim]
			if math.IsInf(maxv, -1) {
				for c := range drow {
					drow[c] = 0
				}
				continue
			}
			// Softmax onto the fixed grid: the row max maps to exactly
			// quantProbScale, so sumQ ≥ quantProbScale whenever any position
			// is allowed. Normalization folds into the dequant factor.
			sumQ := 0
			for r := 0; r < nr; r++ {
				lo, hi := ranges[2*r], ranges[2*r+1]
				sumQ += expGrid(srow[lo:hi], maxv, pq[lo:hi])
			}
			invSum := 1.0 / float64(sumQ)
			for c := 0; c < sh.HeadDim; c += 4 {
				var acc [4]int32
				for w := 0; w < nw; w++ {
					wlo, whi := windows[2*w], windows[2*w+1]
					var sums [4]int32
					dotQuadW(pq[wlo:whi], vtq[(h*sh.HeadDim+c)*lkv16+wlo:(h*sh.HeadDim+c+3)*lkv16+whi], lkv16, whi-wlo, &sums)
					acc[0] += sums[0]
					acc[1] += sums[1]
					acc[2] += sums[2]
					acc[3] += sums[3]
				}
				drow[c] = float64(acc[0]) * vts[h*sh.HeadDim+c] * invSum
				drow[c+1] = float64(acc[1]) * vts[h*sh.HeadDim+c+1] * invSum
				drow[c+2] = float64(acc[2]) * vts[h*sh.HeadDim+c+2] * invSum
				drow[c+3] = float64(acc[3]) * vts[h*sh.HeadDim+c+3] * invSum
			}
		}
	}
	return true
}

// maskRuns writes the maximal runs of non-(-Inf) positions of mrow (length
// lkv; nil means all allowed) into out as flattened [lo, hi) pairs and
// returns the run count.
func maskRuns(out []int, mrow []float64, lkv int) int {
	if mrow == nil {
		out[0], out[1] = 0, lkv
		return 1
	}
	n := 0
	j := 0
	for j < lkv {
		if math.IsInf(mrow[j], -1) {
			j++
			continue
		}
		lo := j
		for j < lkv && !math.IsInf(mrow[j], -1) {
			j++
		}
		out[2*n], out[2*n+1] = lo, j
		n++
	}
	return n
}

// alignWindows rounds each run out to quantLane boundaries (clamped to
// lkv16) and merges overlapping or adjacent windows, so the AV dots stream
// whole lanes while double-counting nothing.
func alignWindows(out, ranges []int, nr, lkv16 int) int {
	n := 0
	for r := 0; r < nr; r++ {
		lo := ranges[2*r] &^ (quantLane - 1)
		hi := (ranges[2*r+1] + quantLane - 1) &^ (quantLane - 1)
		if hi > lkv16 {
			hi = lkv16
		}
		if n > 0 && lo <= out[2*n-1] {
			if hi > out[2*n-1] {
				out[2*n-1] = hi
			}
			continue
		}
		out[2*n], out[2*n+1] = lo, hi
		n++
	}
	return n
}
