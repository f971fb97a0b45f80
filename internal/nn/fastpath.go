// NoGrad fast paths for the nn layers, built on the fused kernels in
// internal/tensor. A layer selects its fast path automatically when the
// global toggle is on and neither its inputs nor its parameters require
// grad (the serve-time configuration after Model.SetEval); otherwise it
// falls through to the composed autograd ops. Both paths produce bit-exact
// identical outputs — see fastpath_test.go.
package nn

import (
	"math"

	"repro/internal/tensor"
)

// qkvPack is the fused attention projection: the three H×H query/key/value
// weight matrices packed column-wise into one H×3H matrix (and biases into
// one 3H vector), so self-attention projects Q, K and V with a single
// matmul over the input.
type qkvPack struct {
	w []float64 // in × 3H row-major: [WQ | WK | WV]
	b []float64 // 3H
}

// pack returns the cached packed projection, building it on first use.
// Safe for concurrent inference: the pointer is published atomically and a
// racing rebuild just wastes one allocation.
func (a *MultiHeadAttention) pack() *qkvPack {
	if p := a.packed.Load(); p != nil {
		return p
	}
	h := a.Hidden
	p := &qkvPack{w: make([]float64, h*3*h), b: make([]float64, 3*h)}
	for i := 0; i < h; i++ {
		row := p.w[i*3*h : (i+1)*3*h]
		copy(row[0:h], a.WQ.W.Row(i))
		copy(row[h:2*h], a.WK.W.Row(i))
		copy(row[2*h:3*h], a.WV.W.Row(i))
	}
	copy(p.b[0:h], a.WQ.B.Data)
	copy(p.b[h:2*h], a.WK.B.Data)
	copy(p.b[2*h:3*h], a.WV.B.Data)
	a.packed.Store(p)
	return p
}

// quantPack returns the int8 pack of the fused projection, building it
// from the fp64 pack on first quantized forward.
func (a *MultiHeadAttention) quantPack(pk *qkvPack) *tensor.QuantMatrix {
	if q := a.qkvQuant.Load(); q != nil {
		return q
	}
	q := tensor.PackQuantMatrix(pk.w, a.Hidden, 3*a.Hidden)
	a.qkvQuant.Store(q)
	return q
}

// InvalidateFastPath drops the packed projection and the quantized packs;
// call after mutating the attention weights in place (checkpoint load,
// optimizer step) so the next fast forward repacks. Model-level
// SetEval/SetTrain/Load do this for you.
func (a *MultiHeadAttention) InvalidateFastPath() {
	a.packed.Store(nil)
	a.qkvQuant.Store(nil)
	a.WO.InvalidateFastPath()
}

// InvalidateFastPath drops the block's cached packs (attention projection
// and the feed-forward int8 packs).
func (b *TransformerBlock) InvalidateFastPath() {
	b.Attn.InvalidateFastPath()
	b.FF1.InvalidateFastPath()
	b.FF2.InvalidateFastPath()
}

// InvalidateFastPath drops the classifier's cached int8 packs.
func (c *MLPClassifier) InvalidateFastPath() {
	c.Hidden.InvalidateFastPath()
	c.Out.InvalidateFastPath()
}

// quantSelected reports whether forwards threaded through ws should take
// the int8 kernels: requested on the workspace (process default or
// per-request override) and SIMD-backed on this machine.
func quantSelected(ws *tensor.Workspace) bool {
	return ws.Quantize && tensor.QuantizeAvailable()
}

func (a *MultiHeadAttention) fastEligible(q, kv, mask *tensor.Tensor) bool {
	return tensor.FastPathEnabled() &&
		tensor.NoGrad(q, kv, mask, a.WQ.W, a.WQ.B, a.WK.W, a.WK.B, a.WV.W, a.WV.B, a.WO.W, a.WO.B)
}

// Segment is one attention problem inside a packed batch: query rows
// [Q0, Q0+Lq) attend only to key/value rows [K0, K0+Lkv), under Mask (an
// additive Lq × Lkv matrix, nil for none). Packing several independent
// sequences this way (variable-length packing in the style of
// FlashAttention-2, arXiv:2307.08691) runs the projections and the
// feed-forward over all rows at once, while each attention core sees only
// its own segment — so a segment's output never depends on its batch-mates.
type Segment struct {
	Q0, Lq, K0, Lkv int
	Mask            *tensor.Tensor
}

// forwardFastInto runs fused attention into dst (lq × Hidden). q and kv are
// raw row-major activations; passing the same slice for both selects the
// packed single-matmul self-attention projection. The projections cover
// every row; the attention core runs once per segment.
func (a *MultiHeadAttention) forwardFastInto(ws *tensor.Workspace, dst []float64, q []float64, lq int, kv []float64, lkv int, segs []Segment) {
	h := a.Hidden
	pk := a.pack()
	headDim := h / a.Heads
	quant := quantSelected(ws)
	var qq *tensor.QuantMatrix
	if quant {
		qq = a.quantPack(pk)
	}
	var qp, kvp []float64
	var qStride, kOff, vOff, kvStride int
	if lq == lkv && &q[0] == &kv[0] {
		proj := ws.Take(lq * 3 * h)
		if quant {
			tensor.LinearQuantInto(ws, proj, q, lq, h, qq, 0, 3*h, pk.b)
		} else {
			tensor.LinearInto(proj, q, lq, h, pk.w, 3*h, 0, 3*h, pk.b)
		}
		qp, kvp = proj, proj
		qStride, kOff, vOff, kvStride = 3*h, h, 2*h, 3*h
	} else {
		qp = ws.Take(lq * h)
		kvp = ws.Take(lkv * 2 * h)
		if quant {
			tensor.LinearQuantInto(ws, qp, q, lq, h, qq, 0, h, pk.b)
			tensor.LinearQuantInto(ws, kvp, kv, lkv, h, qq, h, 3*h, pk.b)
		} else {
			tensor.LinearInto(qp, q, lq, h, pk.w, 3*h, 0, h, pk.b)
			tensor.LinearInto(kvp, kv, lkv, h, pk.w, 3*h, h, 3*h, pk.b)
		}
		qStride, kOff, vOff, kvStride = h, 0, h, 2*h
	}
	core := ws.Take(lq * h)
	for _, s := range segs {
		sh := AttnShapeFor(s.Lq, s.Lkv, a.Heads, headDim)
		sh.QStride = qStride
		sh.KOff, sh.VOff, sh.KVStride = kOff, vOff, kvStride
		out := core[s.Q0*h : (s.Q0+s.Lq)*h]
		sq, skv := qp[s.Q0*qStride:], kvp[s.K0*kvStride:]
		if !(quant && tensor.QuantAttentionCore(ws, out, sq, skv, sh, s.Mask)) {
			tensor.FusedAttentionCore(ws, out, sq, skv, sh, s.Mask)
		}
	}
	if quant {
		tensor.LinearQuantInto(ws, dst, core, lq, h, a.WO.quantPack(), 0, h, a.WO.B.Data)
	} else {
		tensor.LinearInto(dst, core, lq, h, a.WO.W.Data, h, 0, h, a.WO.B.Data)
	}
}

// AttnShapeFor fills the shape-invariant fields of an AttnShape.
func AttnShapeFor(lq, lkv, heads, headDim int) tensor.AttnShape {
	return tensor.AttnShape{
		Lq: lq, Lkv: lkv, Heads: heads, HeadDim: headDim,
		Scale: 1 / math.Sqrt(float64(headDim)),
	}
}

func (b *TransformerBlock) fastEligible(q, kv, mask *tensor.Tensor) bool {
	return b.Attn.fastEligible(q, kv, mask) &&
		tensor.NoGrad(b.LN1.Gamma, b.LN1.Beta, b.FF1.W, b.FF1.B, b.FF2.W, b.FF2.B, b.LN2.Gamma, b.LN2.Beta)
}

// forwardFastWS runs the whole block fused: attention, residual+LN1, the
// GELU feed-forward, residual+LN2. Every intermediate lives in ws; only the
// output is an arena tensor, with the given parents recorded so
// ReleaseGraph frees fused graphs like composed ones.
func (b *TransformerBlock) forwardFastWS(ws *tensor.Workspace, q *tensor.Tensor, kvData []float64, lkv int, segs []Segment, parents []*tensor.Tensor) *tensor.Tensor {
	h := b.Attn.Hidden
	lq := q.Rows
	quant := quantSelected(ws)
	attn := ws.Take(lq * h)
	b.Attn.forwardFastInto(ws, attn, q.Data, lq, kvData, lkv, segs)
	x := ws.Take(lq * h)
	tensor.FusedAddLayerNormInto(x, q.Data, attn, b.LN1.Gamma.Data, b.LN1.Beta.Data, lq, h, b.LN1.Eps)
	inter := b.FF1.Out()
	hidden := ws.Take(lq * inter)
	if quant {
		tensor.LinearQuantInto(ws, hidden, x, lq, h, b.FF1.quantPack(), 0, inter, b.FF1.B.Data)
		tensor.FastGELUInPlace(hidden)
	} else {
		tensor.LinearInto(hidden, x, lq, h, b.FF1.W.Data, inter, 0, inter, b.FF1.B.Data)
		tensor.FusedGELUInPlace(hidden)
	}
	ff := ws.Take(lq * h)
	if quant {
		tensor.LinearQuantInto(ws, ff, hidden, lq, inter, b.FF2.quantPack(), 0, h, b.FF2.B.Data)
	} else {
		tensor.LinearInto(ff, hidden, lq, inter, b.FF2.W.Data, h, 0, h, b.FF2.B.Data)
	}
	out := tensor.InferenceResult(lq, h, parents...)
	tensor.FusedAddLayerNormInto(out.Data, x, ff, b.LN2.Gamma.Data, b.LN2.Beta.Data, lq, h, b.LN2.Eps)
	return out
}

// ForwardWS is Forward with an explicit workspace for scratch buffers: the
// fused path when eligible, the composed ops otherwise. Use it to thread
// one warm workspace through a multi-layer forward.
func (b *TransformerBlock) ForwardWS(ws *tensor.Workspace, q, kv *tensor.Tensor, mask *tensor.Tensor) *tensor.Tensor {
	if !b.fastEligible(q, kv, mask) {
		return b.Forward(q, kv, mask)
	}
	return b.forwardFastWS(ws, q, kv.Data, kv.Rows, []Segment{{Lq: q.Rows, Lkv: kv.Rows, Mask: mask}}, []*tensor.Tensor{q, kv})
}

// InferenceReady reports whether the block's fused NoGrad path is
// selectable for grad-free inputs: the global toggle is on and no block
// parameter requires grad. ForwardPackedWS requires it.
func (b *TransformerBlock) InferenceReady() bool { return b.fastEligible(nil, nil, nil) }

// ForwardPackedWS runs the block fused over a packed batch of independent
// segments (see Segment). q holds every segment's query rows; kv holds
// lkv key/value rows (a workspace buffer is fine) and, when it is q.Data
// itself, selects self-attention. The output has q's shape with parents
// recorded for ReleaseGraph. Inference only: the caller must have checked
// InferenceReady and that no input requires grad.
func (b *TransformerBlock) ForwardPackedWS(ws *tensor.Workspace, q *tensor.Tensor, kv []float64, lkv int, segs []Segment, parents ...*tensor.Tensor) *tensor.Tensor {
	return b.forwardFastWS(ws, q, kv, lkv, segs, parents)
}

// ForwardWS is the classifier forward with explicit workspace and explicit
// graph parents for the returned logits (defaulting to x when none are
// given). The fast path keeps the ReLU hidden layer in scratch.
func (c *MLPClassifier) ForwardWS(ws *tensor.Workspace, x *tensor.Tensor, parents ...*tensor.Tensor) *tensor.Tensor {
	if !(tensor.FastPathEnabled() &&
		tensor.NoGrad(x, c.Hidden.W, c.Hidden.B, c.Out.W, c.Out.B) &&
		tensor.NoGrad(parents...)) {
		return c.Forward(x)
	}
	rows, in := x.Rows, c.Hidden.In()
	hid := c.Hidden.Out()
	quant := quantSelected(ws)
	hidden := ws.Take(rows * hid)
	if quant {
		tensor.LinearQuantInto(ws, hidden, x.Data, rows, in, c.Hidden.quantPack(), 0, hid, c.Hidden.B.Data)
	} else {
		tensor.LinearInto(hidden, x.Data, rows, in, c.Hidden.W.Data, hid, 0, hid, c.Hidden.B.Data)
	}
	tensor.FusedReLUInPlace(hidden)
	if len(parents) == 0 {
		parents = []*tensor.Tensor{x}
	}
	out := tensor.InferenceResult(rows, c.Out.Out(), parents...)
	if quant {
		tensor.LinearQuantInto(ws, out.Data, hidden, rows, hid, c.Out.quantPack(), 0, c.Out.Out(), c.Out.B.Data)
	} else {
		tensor.LinearInto(out.Data, hidden, rows, hid, c.Out.W.Data, c.Out.Out(), 0, c.Out.Out(), c.Out.B.Data)
	}
	return out
}
