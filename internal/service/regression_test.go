package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adtd"
	"repro/internal/obs"
	"repro/internal/simdb"
)

// TestConcurrentRetryAttribution is the regression test for the named-tables
// retry accounting: the handler used to diff the detector's *global* fault
// ledger around its loop, so a concurrent request against a flaky tenant
// leaked its retries into a clean tenant's response. Retries are now summed
// from the per-call TableResult counts, so the clean tenant must always
// report zero.
func TestConcurrentRetryAttribution(t *testing.T) {
	svc, ds := testService(t)
	flaky := simdb.NewServer(simdb.NoLatency)
	flaky.LoadTables("flakyconc", ds.Test)
	flaky.SetFaultProfile(simdb.FaultProfile{Seed: 99, ScanFailProb: 0.7, QueryFailProb: 0.2})
	svc.RegisterTenant("flakyconc", flaky)
	h := svc.Handler()

	tables := []string{ds.Test[0].Name, ds.Test[1].Name}
	const rounds = 6
	var wg sync.WaitGroup
	var flakyRetries atomic.Int64
	cleanRetries := make([]int, rounds)
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "flakyconc", Tables: tables})
			var resp DetectResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Error(err)
				return
			}
			flakyRetries.Add(int64(resp.Retries))
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: tables})
			var resp DetectResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Error(err)
				return
			}
			cleanRetries[i] = resp.Retries
		}(i)
	}
	wg.Wait()
	for i, r := range cleanRetries {
		if r != 0 {
			t.Fatalf("round %d: clean tenant reported %d retries leaked from the flaky tenant (flaky total %d)",
				i, r, flakyRetries.Load())
		}
	}
}

// TestBatcherPanicAnswersSubmitters: a panicking model forward used to kill
// the run goroutine without writing to any submitter's out channel, stranding
// every request in the batch until its deadline. run now recovers and
// delivers the error to all unanswered calls.
func TestBatcherPanicAnswersSubmitters(t *testing.T) {
	svc, _ := testService(t)
	b := NewBatcher(5*time.Millisecond, 64)
	defer b.Stop()
	b.forward = func(*adtd.Model, []adtd.ContentRequest, int) [][][]float64 {
		panic("injected forward failure")
	}

	const callers = 4
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, err := b.InferContentBatch(ctx, svc.detector.Model(), []adtd.ContentRequest{{}}, 4)
			errs[i] = err
			if ctx.Err() != nil {
				t.Error("submitter hung until its deadline instead of being answered")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("caller %d: err = %v, want the recovered panic error", i, err)
		}
	}
	if got := b.Stats().Panics; got == 0 {
		t.Fatal("BatcherStats.Panics not incremented")
	}
}

// TestBatcherStopQuiescence: Stop used to return while flush-spawned run
// goroutines could still be executing a model forward. Stop now waits for
// them; the plain (unsynchronized) counter below is safe to read exactly
// because Stop is a barrier — under -race the old behavior fails.
func TestBatcherStopQuiescence(t *testing.T) {
	svc, _ := testService(t)
	b := NewBatcher(50*time.Millisecond, 64)
	forwards := 0 // intentionally unsynchronized; see above
	b.forward = func(_ *adtd.Model, reqs []adtd.ContentRequest, _ int) [][][]float64 {
		time.Sleep(20 * time.Millisecond)
		forwards++
		return make([][][]float64, len(reqs))
	}
	const callers = 3
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = b.InferContentBatch(context.Background(), svc.detector.Model(), []adtd.ContentRequest{{}}, 4)
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the calls enqueue
	b.Stop()                          // flushes the queue, then must wait for the forwards
	if forwards == 0 {
		t.Fatal("Stop returned before the flushed batch ran")
	}
	wg.Wait()
}

// TestDetectDeadContextStopsTableLoop: after the deadline killed the context,
// the named-tables loop used to keep calling DetectTable once per remaining
// table, appending one identical error each. It now breaks out, reports the
// remaining tables as skipped, and appends a single summary error.
func TestDetectDeadContextStopsTableLoop(t *testing.T) {
	svc, ds := testService(t)
	var tables []string
	for _, tb := range ds.Test {
		tables = append(tables, tb.Name)
	}
	if len(tables) < 3 {
		t.Fatalf("need ≥ 3 test tables, have %d", len(tables))
	}
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{
		Database: "tenantdb", Tables: tables, DeadlineMillis: 1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp DetectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatalf("expired deadline must mark the response degraded: %s", rec.Body)
	}
	if len(resp.Errors) >= len(tables) {
		t.Fatalf("dead context produced %d errors for %d tables — the loop did not stop", len(resp.Errors), len(tables))
	}
	for _, tb := range resp.Tables {
		if tb.Skipped {
			if tb.SkipReason == "" {
				t.Fatalf("skipped table %s without a reason", tb.Table)
			}
			if len(tb.Columns) != 0 {
				t.Fatalf("skipped table %s carries columns", tb.Table)
			}
		}
	}
}

// TestDetectTraceReturnsSpanTree: "trace": true must return the request's
// span tree with per-stage children named s<N>:<table>.
func TestDetectTraceReturnsSpanTree(t *testing.T) {
	svc, ds := testService(t)
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{
		Database: "tenantdb", Tables: []string{ds.Test[0].Name}, Trace: true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp DetectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatalf("no trace in response: %s", rec.Body)
	}
	stages := map[string]bool{}
	resp.Trace.Walk(func(n obs.SpanNode) {
		if i := strings.IndexByte(n.Name, ':'); i > 0 {
			stages[n.Name[:i]] = true
		}
	})
	for _, want := range []string{"s1", "s2", "s3", "s4"} {
		if !stages[want] {
			t.Fatalf("trace misses stage %s: have %v", want, stages)
		}
	}
	// Untraced requests must not pay for or return a trace.
	rec = doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{
		Database: "tenantdb", Tables: []string{ds.Test[0].Name},
	})
	var untraced DetectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &untraced); err != nil {
		t.Fatal(err)
	}
	if untraced.Trace != nil {
		t.Fatal("trace returned without being requested")
	}
}

// metricValue extracts one sample's value from a Prometheus text body.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(series)+1:]), 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found", series)
	return 0
}

// TestMetricsEndpoint drives a burst of mixed ok/degraded/error requests and
// asserts /metrics (a) parses as Prometheus text with consistent histograms,
// (b) carries the core series, and (c) keeps counters monotonic across
// scrapes.
func TestMetricsEndpoint(t *testing.T) {
	svc, ds := testService(t)
	svc.EnableBatching(2*time.Millisecond, 32)
	defer svc.Close()
	h := svc.Handler()

	doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Pipelined: true})
	doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", DeadlineMillis: 1})
	doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "ghost"})
	doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: []string{ds.Test[0].Name}})

	rec := doJSON(t, h, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	if err := obs.CheckText(body); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	for _, series := range []string{
		`taste_stage_seconds_bucket{stage="s1",le="+Inf"}`,
		`taste_stage_seconds_bucket{stage="s4",le="+Inf"}`,
		`taste_pipeline_queue_wait_seconds_count{kind="prep",stage="s1",stolen="false"}`,
		`taste_adtd_forwards_total{kind="content"}`,
		`taste_detect_requests_total{outcome="ok"}`,
		`taste_detect_requests_total{outcome="degraded"}`,
		`taste_detect_requests_total{outcome="error"}`,
		`taste_detect_request_seconds_count`,
		`taste_detect_scanned_ratio_count`,
		`taste_batcher_submissions_total`,
		`taste_cache_hits`,
		`taste_detector_tables_total`,
		`taste_adtd_forwards_total{kind="meta"}`,
		`taste_simdb_op_seconds_count{op="scan"}`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics misses %s", series)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if v := metricValue(t, body, `taste_detect_requests_total{outcome="ok"}`); v < 1 {
		t.Fatalf("ok outcomes = %v, want ≥ 1", v)
	}
	if v := metricValue(t, body, `taste_detect_requests_total{outcome="degraded"}`); v < 1 {
		t.Fatalf("degraded outcomes = %v, want ≥ 1", v)
	}
	if v := metricValue(t, body, `taste_detect_requests_total{outcome="error"}`); v < 1 {
		t.Fatalf("error outcomes = %v, want ≥ 1", v)
	}

	// Counter monotonicity across scrapes with traffic in between.
	before := metricValue(t, body, `taste_detect_requests_total{outcome="ok"}`)
	doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: []string{ds.Test[0].Name}})
	rec = doJSON(t, h, http.MethodGet, "/metrics", nil)
	if err := obs.CheckText(rec.Body.String()); err != nil {
		t.Fatalf("second scrape does not parse: %v", err)
	}
	after := metricValue(t, rec.Body.String(), `taste_detect_requests_total{outcome="ok"}`)
	if after < before+1 {
		t.Fatalf("ok counter not monotonic: %v then %v", before, after)
	}
}
