package adtd

import (
	"time"

	"repro/internal/metafeat"
	"repro/internal/tensor"
)

// ContentRequest names one unit of Phase-2 work for batched inference: a
// table chunk (with cell values populated), the columns to classify, and
// the chunk's metadata encoding (cached or freshly computed).
type ContentRequest struct {
	Menc  *MetaEncoding
	Table *metafeat.TableInfo
	Cols  []int
}

// PredictContentBatch runs the content tower over several chunks' requests
// in one forward pass. The chunks are packed into one sequence batch: the
// linear and feed-forward layers run over every chunk's rows at once, while
// each chunk's attention runs over its own metadata and content only (see
// encodeContentWS). Every row of the result therefore equals the
// corresponding unbatched PredictContent output byte for byte, whatever
// else shares the batch; batching only amortizes per-kernel dispatch and
// classifier overhead.
//
// The batch's autograd graph — including any *fresh* metadata encodings the
// requests reference — is released into the tensor arena before returning.
// Encodings obtained from the latent cache (internal/cache) are graph-free
// Detach views: their layers are leaves, so the release walk skips them and
// cached latents survive. Callers who want a fresh encoding to survive must
// hand it to the cache (whose Put consumes it) or CloneDetach it first.
//
// n is the per-column cell budget, as in PredictContent. The outer result
// slice is indexed like reqs; each entry holds one probability row per
// requested column.
func (m *Model) PredictContentBatch(reqs []ContentRequest, n int) [][][]float64 {
	return m.PredictContentBatchQ(reqs, n, nil)
}

// PredictContentBatchQ is PredictContentBatch with an explicit per-request
// quantization preference: nil follows the process default
// (tensor.SetQuantize), non-nil forces the int8 path on or off for this
// batch only. Quantization applies only when the fused fast path is selected
// and tensor.QuantizeAvailable reports kernel support.
func (m *Model) PredictContentBatchQ(reqs []ContentRequest, n int, quantize *bool) [][][]float64 {
	if len(reqs) == 0 {
		return nil
	}
	defer observeContentForward(time.Now(), len(reqs))
	if m.evalFast() && batchNoGrad(reqs) {
		return m.predictContentBatchFast(reqs, n, quantize)
	}
	// Composed path, one chunk at a time. Graphs are released only once
	// every chunk has run, because requests may share a fresh encoding.
	out := make([][][]float64, len(reqs))
	logits := make([]*tensor.Tensor, len(reqs))
	for r, req := range reqs {
		in := m.enc.BuildContentInput(req.Table, req.Cols, n)
		logits[r] = m.ContentLogits(req.Menc, in, m.EncodeContent(req.Menc, in))
		out[r] = Sigmoid(logits[r])
	}
	for _, l := range logits {
		tensor.ReleaseGraph(l)
	}
	return out
}

// batchNoGrad reports whether every request's metadata latents are frozen,
// part of the fast-path eligibility check.
func batchNoGrad(reqs []ContentRequest) bool {
	for _, req := range reqs {
		if !tensor.NoGrad(req.Menc.Layers...) {
			return false
		}
	}
	return true
}
