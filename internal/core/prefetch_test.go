package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/simdb"
)

// phase2Detector builds an untrained tiny detector with a near-full
// uncertainty band (α=0.01, β=0.99): every column is uncertain after
// Phase 1, so the full prefetch + scan + content-inference path runs for
// every table.
func phase2Detector(t *testing.T, tables int) (*Detector, *corpus.Dataset) {
	t.Helper()
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.SmallTablesProfile(tables), 3)
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 2000)
	types := adtd.NewTypeSpace(ds.Registry.Names())
	cfg := adtd.ReproScale()
	cfg.Layers, cfg.Hidden, cfg.Heads, cfg.Intermediate = 2, 32, 2, 48
	cfg.MetaClassifierHidden, cfg.ContentClassifierHidden = 32, 32
	m, err := adtd.New(cfg, tok, types, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Alpha, opts.Beta = 0.01, 0.99
	det, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return det, ds
}

// allTables flattens every split into one tenant database.
func allTables(ds *corpus.Dataset) []*corpus.Table {
	all := make([]*corpus.Table, 0, len(ds.Train)+len(ds.Val)+len(ds.Test))
	all = append(all, ds.Train...)
	all = append(all, ds.Val...)
	return append(all, ds.Test...)
}

// newServerWith loads the tables into a zero-latency tenant.
func newServerWith(tables []*corpus.Table) *simdb.Server {
	s := simdb.NewServer(simdb.NoLatency)
	s.LoadTables("tenant", tables)
	return s
}

// TestPrefetcherParity: prefetched metadata and scans must be identical to
// the synchronous reads they replace, with every future consumed (no waste,
// no held bytes) when the batch runs to completion in table order.
func TestPrefetcherParity(t *testing.T) {
	det, ds := phase2Detector(t, 20)
	tables := allTables(ds)
	server := simdb.NewServer(simdb.NoLatency)
	server.LoadTables("tenant", tables)
	ctx := context.Background()
	conn, err := server.Connect(ctx, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	names := make([]string, len(tables))
	for i, tb := range tables {
		names[i] = tb.Name
	}

	pf := newPrefetcher(ctx, det, conn, names, 4, 0)
	for _, tb := range tables {
		tm, _, err, ok := pf.awaitMeta(tb.Name)
		if !ok || err != nil {
			t.Fatalf("awaitMeta(%s): ok=%v err=%v", tb.Name, ok, err)
		}
		direct, _, err := det.fetchTableMeta(ctx, conn, tb.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tm, direct) {
			t.Fatalf("table %s: prefetched metadata differs from direct fetch", tb.Name)
		}

		cols := make([]string, len(tb.Columns))
		for i, c := range tb.Columns {
			cols[i] = c.Name
		}
		pf.tryStartScan(tb.Name, cols)
		content, _, err, ok := pf.awaitScan(tb.Name)
		if !ok || err != nil {
			t.Fatalf("awaitScan(%s): ok=%v err=%v", tb.Name, ok, err)
		}
		directScan, err := conn.ScanColumns(ctx, tb.Name, cols, simdb.ScanOptions{
			Strategy: det.Opts.Strategy, Rows: det.Opts.RowsToRead, Seed: det.Opts.ScanSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(content, directScan) {
			t.Fatalf("table %s: prefetched scan differs from direct scan", tb.Name)
		}
	}
	pf.close()
	if pf.waste != 0 || pf.heldBytes != 0 || pf.skipped != 0 {
		t.Fatalf("full consumption must leave nothing behind: waste=%d heldBytes=%d skipped=%d",
			pf.waste, pf.heldBytes, pf.skipped)
	}
	if want := 2 * len(tables); pf.hits != want {
		t.Fatalf("hits = %d, want %d", pf.hits, want)
	}
}

// TestPrefetcherBrakes: the lookahead window caps concurrent scans and the
// byte budget blocks new scans while completed content sits unconsumed —
// and a braked prefetch is skipped, never queued.
func TestPrefetcherBrakes(t *testing.T) {
	det, ds := phase2Detector(t, 20)
	tables := allTables(ds)
	server := simdb.NewServer(simdb.NoLatency)
	server.LoadTables("tenant", tables)
	ctx := context.Background()
	conn, err := server.Connect(ctx, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cols := func(tb *corpus.Table) []string {
		out := make([]string, len(tb.Columns))
		for i, c := range tb.Columns {
			out[i] = c.Name
		}
		return out
	}

	// Window brake: one scan slot.
	pf := newPrefetcher(ctx, det, conn, nil, 1, 0)
	pf.tryStartScan(tables[0].Name, cols(tables[0]))
	pf.tryStartScan(tables[1].Name, cols(tables[1]))
	if pf.skipped != 1 {
		t.Fatalf("window brake: skipped = %d, want 1", pf.skipped)
	}
	pf.close()

	// Byte brake: one completed-but-unconsumed scan exceeds the budget.
	pf = newPrefetcher(ctx, det, conn, nil, 8, 1)
	pf.tryStartScan(tables[0].Name, cols(tables[0]))
	deadline := time.Now().Add(2 * time.Second)
	for {
		pf.mu.Lock()
		held := pf.heldBytes
		pf.mu.Unlock()
		if held > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scan never completed")
		}
		time.Sleep(time.Millisecond)
	}
	pf.tryStartScan(tables[1].Name, cols(tables[1]))
	if pf.skipped != 1 {
		t.Fatalf("byte brake: skipped = %d, want 1", pf.skipped)
	}
	if _, _, _, ok := pf.awaitScan(tables[0].Name); !ok {
		t.Fatal("held scan must still be consumable")
	}
	pf.close()
	if pf.heldBytes != 0 {
		t.Fatalf("heldBytes = %d after consume+close, want 0", pf.heldBytes)
	}
}

// TestPrefetcherCancelDrains: cancelling the batch context mid-flight must
// let close() return promptly (all reads drained), account every unconsumed
// future as waste, and leak no goroutines.
func TestPrefetcherCancelDrains(t *testing.T) {
	det, ds := phase2Detector(t, 30)
	tables := allTables(ds)
	server := simdb.NewServer(simdb.PaperLatency(0.5))
	server.LoadTables("tenant", tables)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conn, err := server.Connect(context.Background(), "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	names := make([]string, len(tables))
	for i, tb := range tables {
		names[i] = tb.Name
	}

	before := runtime.NumGoroutine()
	window := 8
	pf := newPrefetcher(ctx, det, conn, names, window, 0)
	scans := 2
	for _, tb := range tables[:scans] {
		cols := make([]string, len(tb.Columns))
		for i, c := range tb.Columns {
			cols[i] = c.Name
		}
		pf.tryStartScan(tb.Name, cols)
	}
	cancel()

	closed := make(chan struct{})
	go func() {
		pf.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close() did not drain in-flight reads after cancellation")
	}
	if want := window + scans; pf.waste != want {
		t.Fatalf("waste = %d, want %d (every issued, unconsumed future)", pf.waste, want)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// TestPipelinedPrefetchCancelNoLeak: cancelling a full pipelined
// DetectDatabase run — work-stealing scheduler and prefetcher both live —
// must abort with context.Canceled and wind everything down.
func TestPipelinedPrefetchCancelNoLeak(t *testing.T) {
	det, ds := phase2Detector(t, 30)
	// Scale 10 → 100 ms connect, 50 ms per query: even with the prefetcher
	// running the metadata waves 8 wide, the run takes well over 400 ms, so
	// a cancel at 200 ms is guaranteed to land mid-run with reads in
	// flight.
	server := simdb.NewServer(simdb.PaperLatency(10))
	server.LoadTables("tenant", allTables(ds))
	mode := ExecMode{Pipelined: true, Workers: 8}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	rep, err := det.DetectDatabase(ctx, server, "tenant", mode)
	cancel()
	switch {
	case err != nil:
		// Cancel landed before the jobs ran (connect/list): whole-batch abort.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	default:
		// Mid-run cancel: abandoned tables carry the context error per-job
		// (the seed's contract), and the batch cannot have completed.
		found := false
		for _, e := range rep.Errors {
			if errors.Is(e, context.Canceled) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("mid-run cancel left no per-table context errors: %v", rep.Errors)
		}
		if len(rep.Tables) == 30 {
			t.Fatal("every table completed despite the cancel")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}
