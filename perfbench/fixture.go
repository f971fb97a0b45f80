package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/adtd"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/service"
	"repro/internal/simdb"
	"repro/internal/tensor"
)

// The fixture: a deterministic training corpus (the union of WikiTable and
// GitTables training splits), the ADTD checkpoint trained on it, and two
// held-out table pools the workloads draw their tenant databases from. The
// pools' per-table reference digests were recorded once, from the
// sequential cache-off path, by -regen.
const (
	trainWikiTables = 300
	trainGitTables  = 200
	trainWikiSeed   = 1
	trainGitSeed    = 2
	modelSeed       = 1
	vocabTerms      = 4000
	trainEpochs     = 12

	poolWikiTables = 240
	poolGitTables  = 180
	poolWikiSeed   = 101
	poolGitSeed    = 102

	ckptFile = "model.ckpt"
	shaFile  = "model.ckpt.sha256"
	refsFile = "refs.json"
)

// refs is the recorded reference: the checkpoint hash it was made with and,
// per pool, one digest per table answer plus the pool's scanned ratio.
type refs struct {
	CheckpointSHA256 string                       `json:"checkpoint_sha256"`
	ScannedRatio     map[string]float64           `json:"scanned_ratio"`
	F1Micro          map[string]float64           `json:"f1_micro"`
	Digests          map[string]map[string]string `json:"digests"`
}

// fixture is everything a workload needs before its first request.
type fixture struct {
	model *adtd.Model
	refs  *refs
	pools map[string][]*corpus.Table
	// truth maps table name → column name → ground-truth labels.
	truth map[string]map[string][]string
}

// trainingTables regenerates the training union (the vocabulary source).
func trainingTables() []*corpus.Table {
	reg := corpus.DefaultRegistry()
	w := corpus.Generate(reg, corpus.WikiTableProfile(trainWikiTables), trainWikiSeed)
	g := corpus.Generate(reg, corpus.GitTablesProfile(trainGitTables), trainGitSeed)
	return append(append([]*corpus.Table{}, w.Train...), g.Train...)
}

// poolTables regenerates the held-out pools by profile name.
func poolTables() map[string][]*corpus.Table {
	reg := corpus.DefaultRegistry()
	all := func(ds *corpus.Dataset) []*corpus.Table {
		return append(append(append([]*corpus.Table{}, ds.Train...), ds.Val...), ds.Test...)
	}
	return map[string][]*corpus.Table{
		"wiki": all(corpus.Generate(reg, corpus.WikiTableProfile(poolWikiTables), poolWikiSeed)),
		"git":  all(corpus.Generate(reg, corpus.GitTablesProfile(poolGitTables), poolGitSeed)),
	}
}

// newModel builds the untrained model whose vocabulary and type space the
// checkpoint was trained against.
func newModel() (*adtd.Model, error) {
	reg := corpus.DefaultRegistry()
	tok := adtd.BuildVocabulary(trainingTables(), reg.Names(), vocabTerms)
	return adtd.New(adtd.ReproScale(), tok, adtd.NewTypeSpace(reg.Names()), modelSeed)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// loadFixture rebuilds the model, loads the checkpoint after verifying its
// sha256 against both recorded copies, and regenerates the pools.
func loadFixture(dir string) (*fixture, error) {
	ckpt, err := os.ReadFile(filepath.Join(dir, ckptFile))
	if err != nil {
		return nil, fmt.Errorf("read checkpoint: %w", err)
	}
	shaLine, err := os.ReadFile(filepath.Join(dir, shaFile))
	if err != nil {
		return nil, fmt.Errorf("read checkpoint hash: %w", err)
	}
	rb, err := os.ReadFile(filepath.Join(dir, refsFile))
	if err != nil {
		return nil, fmt.Errorf("read references: %w", err)
	}
	var r refs
	if err := json.Unmarshal(rb, &r); err != nil {
		return nil, fmt.Errorf("parse references: %w", err)
	}
	got := sha256Hex(ckpt)
	fields := strings.Fields(string(shaLine))
	if len(fields) == 0 || fields[0] != got || r.CheckpointSHA256 != got {
		return nil, fmt.Errorf("checkpoint sha256 %s does not match the recorded hash; rerun -regen", got)
	}
	m, err := newModel()
	if err != nil {
		return nil, err
	}
	if err := m.Load(bytes.NewReader(ckpt)); err != nil {
		return nil, fmt.Errorf("load checkpoint: %w", err)
	}
	m.SetEval()
	fx := &fixture{model: m, refs: &r, pools: poolTables()}
	fx.truth = truthOf(append(append([]*corpus.Table{}, fx.pools["wiki"]...), fx.pools["git"]...))
	return fx, nil
}

// truthOf maps table name → column name → ground-truth labels.
func truthOf(tables []*corpus.Table) map[string]map[string][]string {
	truth := make(map[string]map[string][]string, len(tables))
	for _, t := range tables {
		cols := make(map[string][]string, len(t.Columns))
		for _, c := range t.Columns {
			cols[c.Name] = c.Labels
		}
		truth[t.Name] = cols
	}
	return truth
}

// tableDigest is the reference digest of one table answer: the sha256 of
// its JSON encoding as the service sends it (no timings in it).
func tableDigest(raw []byte) string { return sha256Hex(raw) }

// referenceDigests answers every pool table once through the sequential,
// cache-off path and digests each table answer.
func referenceDigests(m *adtd.Model, pool []*corpus.Table) (map[string]string, *scoreboard, error) {
	opts := core.DefaultOptions()
	opts.CacheBytes, opts.ResultCacheBytes = 0, 0
	det, err := core.NewDetector(m, opts)
	if err != nil {
		return nil, nil, err
	}
	srv := simdb.NewServer(simdb.NoLatency)
	srv.LoadTables("pool", pool)
	svc := service.New(det)
	svc.RegisterTenant("pool", srv)
	resp, apiErr := svc.Detect(context.Background(), service.DetectRequest{Database: "pool"})
	if apiErr != nil {
		return nil, nil, apiErr
	}
	if len(resp.Tables) != len(pool) || resp.Degraded {
		return nil, nil, fmt.Errorf("reference pass answered %d of %d tables (degraded=%v)", len(resp.Tables), len(pool), resp.Degraded)
	}
	out := make(map[string]string, len(pool))
	var sb scoreboard
	truth := truthOf(pool)
	for _, tab := range resp.Tables {
		raw, err := json.Marshal(tab)
		if err != nil {
			return nil, nil, err
		}
		out[tab.Table] = tableDigest(raw)
		sb.addTable(tab, truth[tab.Table])
	}
	return out, &sb, nil
}

// regenerate trains the checkpoint deterministically (fixed seeds, one
// kernel worker, one gradient worker) and records its hash and the
// reference digests. Run it only when the model or the pools change.
func regenerate(dir string) error {
	tensor.SetParallelism(1)
	m, err := newModel()
	if err != nil {
		return err
	}
	cfg := adtd.DefaultTrainConfig()
	cfg.Epochs = trainEpochs
	cfg.LR, cfg.FinalLR = 1.5e-3, 3e-4
	cfg.PosWeight = 6
	cfg.WeightDecay = 1e-4
	cfg.Cells = 6
	cfg.ContentColumnsPerChunk = 4
	cfg.Workers = 1
	cfg.Seed = modelSeed
	cfg.Log = os.Stderr
	if _, err := adtd.FineTune(m, trainingTables(), cfg); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	m.SetEval()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sum := sha256Hex(buf.Bytes())
	if err := os.WriteFile(filepath.Join(dir, ckptFile), buf.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, shaFile), []byte(sum+"  "+ckptFile+"\n"), 0o644); err != nil {
		return err
	}
	// References are taken at the serving default kernel parallelism; the
	// kernels are deterministic across worker counts, and every run checks
	// that claim against these digests.
	tensor.SetParallelism(tensor.DefaultParallelism())
	r := refs{
		CheckpointSHA256: sum,
		ScannedRatio:     map[string]float64{},
		F1Micro:          map[string]float64{},
		Digests:          map[string]map[string]string{},
	}
	pools := poolTables()
	names := make([]string, 0, len(pools))
	for name := range pools {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d, sb, err := referenceDigests(m, pools[name])
		if err != nil {
			return fmt.Errorf("references %s: %w", name, err)
		}
		r.Digests[name] = d
		r.ScannedRatio[name] = sb.scannedRatio()
		r.F1Micro[name] = sb.f1()
		fmt.Fprintf(os.Stderr, "perfbench: pool %s: %d tables, scanned ratio %.4f, micro-F1 %.4f\n",
			name, len(d), sb.scannedRatio(), sb.f1())
	}
	out, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, refsFile), append(out, '\n'), 0o644)
}
