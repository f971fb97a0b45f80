package adtd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/metafeat"
	"repro/internal/tensor"
)

// TestPredictContentBatchMatchesUnbatched verifies the batched Phase-2 path
// against per-chunk PredictContent: packing must isolate the chunks so
// every probability row matches its unbatched counterpart.
func TestPredictContentBatchMatchesUnbatched(t *testing.T) {
	m, ds := tinyModel(t)
	const cells = 3

	var reqs []ContentRequest
	var want [][][]float64
	for ti := 0; ti < 3 && ti < len(ds.Test); ti++ {
		info := metafeat.FromCorpusTable(ds.Test[ti], false, 0)
		cols := []int{0}
		if len(info.Columns) > 1 {
			cols = append(cols, len(info.Columns)-1)
		}
		menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
		want = append(want, m.PredictContent(menc, info, cols, cells))
		reqs = append(reqs, ContentRequest{Menc: menc, Table: info, Cols: cols})
	}

	got := m.PredictContentBatch(reqs, cells)
	if len(got) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(got), len(reqs))
	}
	for r := range reqs {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("request %d: %d rows, want %d", r, len(got[r]), len(want[r]))
		}
		for c := range want[r] {
			for s := range want[r][c] {
				if d := math.Abs(got[r][c][s] - want[r][c][s]); d > 1e-9 {
					t.Fatalf("request %d col %d type %d: batched %v vs unbatched %v (Δ %g)",
						r, c, s, got[r][c][s], want[r][c][s], d)
				}
			}
		}
	}
}

// TestPredictContentBatchSingleRequest exercises the nil-mask fast path for
// one single-column request.
func TestPredictContentBatchSingleRequest(t *testing.T) {
	m, ds := tinyModel(t)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
	want := m.PredictContent(menc, info, []int{0}, 3)
	got := m.PredictContentBatch([]ContentRequest{{Menc: menc, Table: info, Cols: []int{0}}}, 3)
	if len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("unexpected batch shape")
	}
	for s := range want[0] {
		if math.Abs(got[0][0][s]-want[0][s]) > 1e-9 {
			t.Fatalf("type %d: %v vs %v", s, got[0][0][s], want[0][s])
		}
	}
}

// TestPredictContentBatchSymmetric checks the ablation tower's batched mask.
func TestPredictContentBatchSymmetric(t *testing.T) {
	m, ds := tinyModel(t)
	m.Cfg.SymmetricContent = true
	defer func() { m.Cfg.SymmetricContent = false }()
	var reqs []ContentRequest
	var want [][][]float64
	for ti := 0; ti < 2 && ti < len(ds.Test); ti++ {
		info := metafeat.FromCorpusTable(ds.Test[ti], false, 0)
		cols := []int{0}
		if len(info.Columns) > 1 {
			cols = append(cols, 1)
		}
		menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
		want = append(want, m.PredictContent(menc, info, cols, 3))
		reqs = append(reqs, ContentRequest{Menc: menc, Table: info, Cols: cols})
	}
	got := m.PredictContentBatch(reqs, 3)
	for r := range want {
		for c := range want[r] {
			for s := range want[r][c] {
				if math.Abs(got[r][c][s]-want[r][c][s]) > 1e-9 {
					t.Fatalf("req %d col %d type %d: %v vs %v", r, c, s, got[r][c][s], want[r][c][s])
				}
			}
		}
	}
}

// TestPredictContentBatchReleasesFreshEncodings documents the ownership
// contract: fresh encodings passed into the batch are consumed.
func TestPredictContentBatchReleasesFreshEncodings(t *testing.T) {
	m, ds := tinyModel(t)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
	cached := menc.CloneDetach()
	m.PredictContentBatch([]ContentRequest{{Menc: menc, Table: info, Cols: []int{0}}}, 3)
	if menc.Final().Data != nil {
		t.Fatal("fresh encoding must be released by the batch call")
	}
	if cached.Final().Data == nil {
		t.Fatal("deep copy must survive the batch call")
	}
	// The surviving copy must still be usable for another pass.
	out := m.PredictContentBatch([]ContentRequest{{Menc: cached, Table: info, Cols: []int{0}}}, 3)
	if len(out) != 1 || len(out[0]) != 1 {
		t.Fatal("cached encoding unusable after release of the original")
	}
}

// TestPredictContentBatchRowsIndependentOfBatchMates pins the batching
// contract the serving batchers rely on: a chunk's probability rows are the
// same bytes whether it is classified alone or inside a batch with any other
// chunks — in fp64 and int8, with and without SymmetricContent. Each chunk
// runs alone once, then inside random 1–6 chunk batches.
func TestPredictContentBatchRowsIndependentOfBatchMates(t *testing.T) {
	m, ds := tinyModel(t)
	defer func() { m.Cfg.SymmetricContent = false }()
	const cells = 3
	var chunks []ContentRequest
	for _, tb := range append(append([]*corpus.Table(nil), ds.Test...), ds.Train...) {
		if len(chunks) == 8 {
			break
		}
		info := metafeat.FromCorpusTable(tb, false, 0)
		cols := []int{0}
		for c := 1; c < len(info.Columns) && c < 1+len(chunks)%4; c++ {
			cols = append(cols, c)
		}
		menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
		// Detached copies survive the batch calls, like cached encodings do.
		chunks = append(chunks, ContentRequest{Menc: menc.CloneDetach(), Table: info, Cols: cols})
		menc.Release()
	}
	quantModes := []bool{false}
	if tensor.QuantizeAvailable() {
		quantModes = append(quantModes, true)
	}
	for _, quant := range quantModes {
		for _, symmetric := range []bool{false, true} {
			m.Cfg.SymmetricContent = symmetric
			alone := make([][][]float64, len(chunks))
			for i, c := range chunks {
				alone[i] = m.PredictContentBatchQ([]ContentRequest{c}, cells, &quant)[0]
			}
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 12; trial++ {
				picks := make([]int, 1+rng.Intn(6))
				reqs := make([]ContentRequest, len(picks))
				for k := range picks {
					picks[k] = rng.Intn(len(chunks))
					reqs[k] = chunks[picks[k]]
				}
				got := m.PredictContentBatchQ(reqs, cells, &quant)
				for k, i := range picks {
					for c := range alone[i] {
						for s := range alone[i][c] {
							if math.Float64bits(got[k][c][s]) != math.Float64bits(alone[i][c][s]) {
								t.Fatalf("quant=%v symmetric=%v batch %v: chunk %d col %d type %d: batched %v, alone %v",
									quant, symmetric, picks, i, c, s, got[k][c][s], alone[i][c][s])
							}
						}
					}
				}
			}
		}
	}
}
