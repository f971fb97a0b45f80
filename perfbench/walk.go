package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/adtd"
	"repro/internal/core"
	"repro/internal/metafeat"
	"repro/internal/service"
	"repro/internal/simdb"
)

// Layer names of the walk. Every span is one of these; "other" is the
// per-database root, whose self time is the walk's own bookkeeping (band
// checks, admission, result assembly).
const (
	layerOther          = "other"
	layerConnect        = "simdb.connect"
	layerMetadata       = "simdb.metadata"
	layerScan           = "simdb.scan"
	layerInputMeta      = "input.meta"
	layerInputContent   = "input.content"
	layerMetaForward    = "adtd.meta_forward"
	layerContentForward = "adtd.content_forward"
)

// tracer records nested spans and accumulates each layer's self time (its
// duration minus the part its child spans cover). A disabled tracer does
// nothing, not even read the clock. Not safe for concurrent use; the walk is
// sequential.
type tracer struct {
	on    bool
	self  map[string]time.Duration
	stack []frame
}

type frame struct {
	name  string
	start time.Time
	child time.Duration
}

func newTracer(on bool) *tracer { return &tracer{on: on, self: map[string]time.Duration{}} }

func (t *tracer) begin(name string) {
	if t.on {
		t.stack = append(t.stack, frame{name: name, start: time.Now()})
	}
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	t.self[f.name] += d - f.child
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	}
}

// walkCounts are the work counts of one walk.
type walkCounts struct {
	metaTokens, contentTokens     int
	metaForwards, contentForwards int
	contentChunks, packedTokens   int
}

// walkDB replays one database detect sequentially through the public layer
// functions, the path core's sequential cache-off mode takes, with the
// Phase-1 latents reused for Phase 2 as the latent cache would. It returns
// the table answers in listing order.
func walkDB(ctx context.Context, tr *tracer, m *adtd.Model, opts core.Options, server *simdb.Server, dbName string, wc *walkCounts) ([]service.DetectTable, error) {
	tr.begin(layerOther)
	defer tr.end()
	tr.begin(layerConnect)
	conn, err := server.Connect(ctx, dbName)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin(layerMetadata)
	tables, err := conn.ListTables(ctx)
	tr.end()
	if err != nil {
		return nil, err
	}
	out := make([]service.DetectTable, 0, len(tables))
	for _, name := range tables {
		t, err := walkTable(ctx, tr, m, opts, conn, name, wc)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", name, err)
		}
		out = append(out, t)
	}
	tr.begin(layerConnect)
	err = conn.Close()
	tr.end()
	return out, err
}

func walkTable(ctx context.Context, tr *tracer, m *adtd.Model, opts core.Options, conn *simdb.Conn, name string, wc *walkCounts) (service.DetectTable, error) {
	res := service.DetectTable{Table: name}
	tr.begin(layerMetadata)
	tm, err := conn.TableMetadata(ctx, name)
	tr.end()
	if err != nil {
		return res, err
	}

	tr.begin(layerInputMeta)
	info := metafeat.FromTableMeta(tm)
	chunks := info.Split(opts.SplitThreshold)
	ins := make([]*adtd.MetaInput, len(chunks))
	for i, ch := range chunks {
		ins[i] = m.Encoder().BuildMetaInput(ch, opts.UseHistogram)
		wc.metaTokens += ins[i].Len()
	}
	tr.end()

	tr.begin(layerMetaForward)
	mencs := make([]*adtd.MetaEncoding, len(chunks))
	var probs [][]float64
	for i := range chunks {
		mencs[i] = m.EncodeMetadata(ins[i])
		probs = append(probs, adtd.Sigmoid(m.MetaLogits(mencs[i]))...)
		wc.metaForwards++
	}
	tr.end()

	// Band check (Definition 3.2): p ≥ β admits, any p in (α, β) sends the
	// column to Phase 2.
	res.Columns = make([]service.DetectColumn, len(info.Columns))
	var uncertain []int
	for g, row := range probs {
		res.Columns[g] = service.DetectColumn{Column: info.Columns[g].Name, Types: admittedTypes(m, row, opts.Beta), Phase: 1}
		if !opts.P2Disabled() && inBand(row, opts.Alpha, opts.Beta) {
			uncertain = append(uncertain, g)
		}
	}
	if len(uncertain) == 0 {
		for _, e := range mencs {
			e.Release()
		}
		return res, nil
	}

	names := make([]string, len(uncertain))
	for i, g := range uncertain {
		names[i] = info.Columns[g].Name
	}
	tr.begin(layerScan)
	content, err := conn.ScanColumns(ctx, name, names, simdb.ScanOptions{
		Strategy: opts.Strategy, Rows: opts.RowsToRead, Seed: opts.ScanSeed,
	})
	tr.end()
	if err != nil {
		return res, err
	}
	pending := make(map[int]bool, len(uncertain))
	for _, g := range uncertain {
		info.Columns[g].Values = content[info.Columns[g].Name]
		pending[g] = true
	}

	tr.begin(layerInputContent)
	var reqs []adtd.ContentRequest
	var globals [][]int
	off := 0
	for ci, ch := range chunks {
		var local, glob []int
		for l := range ch.Columns {
			if pending[off+l] {
				local = append(local, l)
				glob = append(glob, off+l)
			}
		}
		off += len(ch.Columns)
		if len(local) == 0 {
			mencs[ci].Release()
			continue
		}
		cin := m.Encoder().BuildContentInput(ch, local, opts.CellsPerColumn)
		wc.contentTokens += cin.Len()
		wc.packedTokens += cin.Len() + mencs[ci].In.Len()
		reqs = append(reqs, adtd.ContentRequest{Menc: mencs[ci], Table: ch, Cols: local})
		globals = append(globals, glob)
	}
	tr.end()

	tr.begin(layerContentForward)
	rows := m.PredictContentBatch(reqs, opts.CellsPerColumn)
	tr.end()
	wc.contentForwards++
	wc.contentChunks += len(reqs)
	for r, glob := range globals {
		for slot, g := range glob {
			c := &res.Columns[g]
			c.Types = admittedTypes(m, rows[r][slot], opts.AdmitThreshold)
			c.Phase, c.Scanned = 2, true
		}
	}
	return res, nil
}

// admittedTypes returns the sorted non-background type names with
// probability ≥ threshold, never nil (the service's JSON shape).
func admittedTypes(m *adtd.Model, probs []float64, threshold float64) []string {
	out := []string{}
	for i, p := range probs {
		if i > 0 && p >= threshold {
			out = append(out, m.Types.Name(i))
		}
	}
	sort.Strings(out)
	return out
}

func inBand(probs []float64, alpha, beta float64) bool {
	for _, p := range probs {
		if p > alpha && p < beta {
			return true
		}
	}
	return false
}
