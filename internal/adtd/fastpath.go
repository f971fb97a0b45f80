// Model-level NoGrad fast path: fused embedding gather, workspace-threaded
// tower forwards, and fused span pooling feeding the classifier heads. Every
// routine here is bit-exact against the composed path it replaces (the
// per-layer kernels guarantee it — see nn/fastpath.go and tensor/fused.go;
// the pooling and masks below reproduce the composed op order element for
// element), so PredictMeta/PredictContent/PredictContentBatch return
// identical bytes whether or not the fast path is selected. Enforced by
// fastpath_test.go.
package adtd

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// invalidatePacks drops every cached fast-path weight pack — the fp64
// attention projections and all int8 quantized packs (attention, FF and
// classifier/MLM linears) — and bumps the weight generation that versions
// memoized model outputs; called whenever parameters may have changed in
// place (grad-mode flips, checkpoint loads, feedback updates) so the next
// fast forward repacks fresh weights and stale cached predictions stop
// resolving.
func (m *Model) invalidatePacks() {
	for _, b := range m.Blocks {
		b.InvalidateFastPath()
	}
	m.MetaCls.InvalidateFastPath()
	m.ContCls.InvalidateFastPath()
	m.MLMHead.InvalidateFastPath()
	m.gen.Store(nextGeneration())
}

// evalFast reports whether the model-level fused inference path may be
// selected: the global toggle is on and every tensor the fused embedding,
// tower and classifier stages touch is frozen.
func (m *Model) evalFast() bool {
	if !tensor.FastPathEnabled() || !tensor.NoGrad(
		m.TokEmbed.Table, m.PosEmbed.Table, m.SegEmbed.Table,
		m.MetaCls.Hidden.W, m.MetaCls.Hidden.B, m.MetaCls.Out.W, m.MetaCls.Out.B,
		m.ContCls.Hidden.W, m.ContCls.Hidden.B, m.ContCls.Out.W, m.ContCls.Out.B) {
		return false
	}
	for _, b := range m.Blocks {
		if !b.InferenceReady() {
			return false
		}
	}
	return true
}

// embedFast is embed() in one pass: token+position+segment rows summed
// directly into an arena tensor, with no per-table gather tensors and no
// position-id slice. segments may be nil, in which case constSeg is used for
// every position (the content tower's constant segment 2).
func (m *Model) embedFast(ids, segments []int, constSeg int) *tensor.Tensor {
	out := tensor.InferenceResult(len(ids), m.Cfg.Hidden, m.TokEmbed.Table, m.PosEmbed.Table, m.SegEmbed.Table)
	m.embedInto(out.Data, ids, segments, constSeg)
	return out
}

// embedInto writes the embedding rows of ids into dst (len(ids) × Hidden).
// Positions count from 0 within ids. Each element is (tok + pos) + seg, the
// same left-associative order as Add(Add(...)).
func (m *Model) embedInto(dst []float64, ids, segments []int, constSeg int) {
	h := m.Cfg.Hidden
	tok := m.TokEmbed.Table.Data
	pos := m.PosEmbed.Table.Data
	seg := m.SegEmbed.Table.Data
	maxPos := m.Cfg.MaxSeq - 1
	for i, id := range ids {
		p := i
		if p > maxPos {
			p = maxPos
		}
		s := constSeg
		if segments != nil {
			s = segments[i]
		}
		trow := tok[id*h : (id+1)*h]
		prow := pos[p*h : (p+1)*h]
		srow := seg[s*h : (s+1)*h]
		drow := dst[i*h : (i+1)*h]
		for j := range drow {
			drow[j] = trow[j] + prow[j] + srow[j]
		}
	}
}

// encodeMetadataWS is EncodeMetadata threading one warm workspace through
// every block.
func (m *Model) encodeMetadataWS(ws *tensor.Workspace, in *MetaInput) *MetaEncoding {
	enc := &MetaEncoding{In: in}
	x := m.embedFast(in.IDs, in.Segments, 0)
	enc.Layers = append(enc.Layers, x)
	for _, b := range m.Blocks {
		x = b.ForwardWS(ws, x, x, nil)
		enc.Layers = append(enc.Layers, x)
	}
	return enc
}

// metaLogitsWS assembles the per-column classifier features
// [meanpool(span) ⊕ nonTextual] in workspace scratch and runs the metadata
// head fused. The returned logits are arena-backed with the final latents as
// parent, so they survive workspace release.
func (m *Model) metaLogitsWS(ws *tensor.Workspace, enc *MetaEncoding) *tensor.Tensor {
	h := m.Cfg.Hidden
	final := enc.Final()
	width := m.MetaCls.Hidden.In()
	x := ws.Matrix(len(enc.In.ColSpans), width)
	for i, sp := range enc.In.ColSpans {
		row := x.Data[i*width : (i+1)*width]
		tensor.MeanPoolRowsInto(row[:h], final.Data, h, sp[0], sp[1])
		copy(row[h:], enc.In.NonTextual[i])
	}
	return m.MetaCls.ForwardWS(ws, x, final)
}

// encodeContentWS is EncodeContent over a packed batch of chunks, threading
// one workspace. The chunks' content rows are packed as queries
// [content_1 ⊕ content_2 …] and, per layer, the keys/values as
// [meta_1 ⊕ content_1 ⊕ meta_2 ⊕ content_2 …] (the content rows alone under
// SymmetricContent). The projections and feed-forward run over the whole
// pack, while each chunk's attention core sees only its own segment under
// its single-chunk mask — the same computation as a batch of one, so a
// chunk's rows never depend on its batch-mates, in fp64 or int8.
func (m *Model) encodeContentWS(ws *tensor.Workspace, mencs []*MetaEncoding, cins []*ContentInput) *tensor.Tensor {
	h := m.Cfg.Hidden
	segs := make([]nn.Segment, len(cins))
	lq, lkv := 0, 0
	for r, cin := range cins {
		if len(mencs[r].Layers) != m.Cfg.Layers+1 {
			panic(fmt.Sprintf("adtd: metadata encoding has %d layers, model wants %d", len(mencs[r].Layers)-1, m.Cfg.Layers))
		}
		lc, lm := cin.Len(), 0
		if !m.Cfg.SymmetricContent {
			lm = mencs[r].In.Len()
		}
		segs[r] = nn.Segment{Q0: lq, Lq: lc, K0: lkv, Lkv: lm + lc, Mask: contentMaskWS(ws, lm, cin)}
		lq += lc
		lkv += lm + lc
	}
	// Positions restart per chunk, exactly as in a batch of one.
	content := tensor.InferenceResult(lq, h, m.TokEmbed.Table, m.PosEmbed.Table, m.SegEmbed.Table)
	for r, cin := range cins {
		m.embedInto(content.Data[segs[r].Q0*h:], cin.IDs, nil, 2)
	}
	if m.Cfg.SymmetricContent {
		for _, b := range m.Blocks {
			content = b.ForwardPackedWS(ws, content, content.Data, lq, segs, content)
		}
		return content
	}
	kv := ws.Take(lkv * h)
	for li, b := range m.Blocks {
		// A fresh parents slice per layer: the block output keeps it.
		parents := make([]*tensor.Tensor, 0, len(mencs)+1)
		parents = append(parents, content)
		for r, s := range segs {
			meta := mencs[r].Layers[li]
			copy(kv[s.K0*h:], meta.Data)
			copy(kv[s.K0*h+len(meta.Data):], content.Data[s.Q0*h:(s.Q0+s.Lq)*h])
			parents = append(parents, meta)
		}
		content = b.ForwardPackedWS(ws, content, kv, lkv, segs, parents...)
	}
	return content
}

// contentLogitsWS assembles the content head's features
// [meanpool(content span) ⊕ meanpool(metadata span) ⊕ nonTextual] in scratch
// and runs the classifier fused. contentOff shifts the content spans, which
// is how the batched path pools one chunk out of a concatenated batch.
func (m *Model) contentLogitsWS(ws *tensor.Workspace, x *tensor.Tensor, rowBase int, menc *MetaEncoding, in *ContentInput, content *tensor.Tensor, contentOff int) {
	h := m.Cfg.Hidden
	width := x.Cols
	final := menc.Final()
	for slot, ci := range in.Columns {
		row := x.Data[(rowBase+slot)*width : (rowBase+slot+1)*width]
		sp := in.ColSpans[slot]
		tensor.MeanPoolRowsInto(row[:h], content.Data, h, contentOff+sp[0], contentOff+sp[1])
		msp := menc.In.ColSpans[ci]
		tensor.MeanPoolRowsInto(row[h:2*h], final.Data, h, msp[0], msp[1])
		copy(row[2*h:], menc.In.NonTextual[ci])
	}
}

// predictContentBatchFast is the fused PredictContentBatch: one workspace
// and one packed tower forward for the whole batch, scratch-resident masks
// and classifier features, and the same release contract as the composed
// path (fresh metadata encodings reachable from the logits' parents are
// recycled; cached graph-free entries are leaves and survive). quantize,
// when non-nil, overrides the process-wide quantization default for this
// batch.
func (m *Model) predictContentBatchFast(reqs []ContentRequest, n int, quantize *bool) [][][]float64 {
	ws := tensor.AcquireWorkspace()
	if quantize != nil {
		ws.Quantize = *quantize
	}
	observeQuantized(ws, quantContentForwardsTotal)
	cins := make([]*ContentInput, len(reqs))
	mencs := make([]*MetaEncoding, len(reqs))
	totalCols := 0
	for r, req := range reqs {
		cins[r] = m.enc.BuildContentInput(req.Table, req.Cols, n)
		mencs[r] = req.Menc
		totalCols += len(cins[r].Columns)
	}
	content := m.encodeContentWS(ws, mencs, cins)

	x := ws.Matrix(totalCols, m.ContCls.Hidden.In())
	parents := make([]*tensor.Tensor, 0, len(reqs)+1)
	parents = append(parents, content)
	rowBase, off := 0, 0
	for r, req := range reqs {
		m.contentLogitsWS(ws, x, rowBase, req.Menc, cins[r], content, off)
		rowBase += len(cins[r].Columns)
		off += cins[r].Len()
		parents = append(parents, req.Menc.Final())
	}
	logits := m.ContCls.ForwardWS(ws, x, parents...)
	all := Sigmoid(logits)
	tensor.ReleaseGraph(logits)
	tensor.ReleaseWorkspace(ws)

	out := make([][][]float64, len(reqs))
	row := 0
	for r := range reqs {
		nc := len(cins[r].Columns)
		out[r] = all[row : row+nc]
		row += nc
	}
	return out
}

// contentMaskWS is contentMask built in workspace scratch.
func contentMaskWS(ws *tensor.Workspace, lm int, cin *ContentInput) *tensor.Tensor {
	if singleColumn(cin) {
		return nil
	}
	return fillContentMask(ws.Matrix(cin.Len(), lm+cin.Len()), lm, cin)
}

// fillContentMask writes one chunk's additive attention mask into mask
// (lc × (lm+lc)): lc content rows over lm metadata keys (all allowed)
// followed by the chunk's lc content keys, of which a position sees only
// its own column's (§6.4). Every element is written, so mask may start
// uncleared.
func fillContentMask(mask *tensor.Tensor, lm int, cin *ContentInput) *tensor.Tensor {
	lc := cin.Len()
	neg := math.Inf(-1)
	for i := 0; i < lc; i++ {
		row := mask.Row(i)
		for j := 0; j < lm; j++ {
			row[j] = 0
		}
		crow := row[lm:]
		for j := 0; j < lc; j++ {
			if cin.ColOf[j] == cin.ColOf[i] {
				crow[j] = 0
			} else {
				crow[j] = neg
			}
		}
	}
	return mask
}

// singleColumn reports whether every content position belongs to one column,
// the case where no attention mask is needed.
func singleColumn(cin *ContentInput) bool {
	for _, c := range cin.ColOf {
		if c != cin.ColOf[0] {
			return false
		}
	}
	return true
}
