package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adtd"
	"repro/internal/core"
	"repro/internal/service"
)

// The configuration tasted ships with (cmd/tasted flag defaults). Zero
// ExecMode fields resolve to the program's own defaults, so a change to a
// default is measured for what it does.
const (
	latentCacheBytes = 64 << 20 // -cache-bytes
	resultCacheBytes = 16 << 20 // -result-cache
	batchWindow      = 2 * time.Millisecond
	maxBatch         = 8
)

// tastedMode is tasted's default pipelined mode: the work-stealing pool
// sized by AutoMode, scan lookahead and cross-table batching at their
// defaults (2×workers and 8 chunks).
func tastedMode() core.ExecMode {
	auto := core.AutoMode()
	return core.ExecMode{Pipelined: true, PrepWorkers: auto.PrepWorkers, InferWorkers: auto.InferWorkers}
}

func shippedOptions() core.Options {
	opts := core.DefaultOptions()
	opts.CacheBytes = latentCacheBytes
	opts.ResultCacheBytes = resultCacheBytes
	return opts
}

// shipped is one tasted-configured service over the benchmark model.
type shipped struct {
	svc *service.Service
	det *core.Detector
	// batcher and ci are set on traced services only: the cross-request
	// batcher is built by hand (as EnableBatching builds it) so the
	// benchmark's counting wrapper can sit between it and the detector.
	batcher *service.Batcher
	ci      *countingInferencer
}

// newShipped builds the service. Untraced services enable batching exactly
// as tasted does.
func newShipped(m *adtd.Model, traced bool) (*shipped, error) {
	det, err := core.NewDetector(m, shippedOptions())
	if err != nil {
		return nil, err
	}
	s := &shipped{svc: service.New(det), det: det}
	s.svc.SetDefaultMode(tastedMode())
	if !traced {
		s.svc.EnableBatching(batchWindow, maxBatch)
		return s, nil
	}
	s.batcher = service.NewBatcher(batchWindow, maxBatch)
	s.ci = &countingInferencer{inner: s.batcher}
	s.ci.on.Store(true)
	det.SetContentInferencer(s.ci)
	return s, nil
}

func (s *shipped) close() {
	s.svc.Close()
	if s.batcher != nil {
		s.batcher.Stop()
	}
}

// countingInferencer wraps the cross-request batcher and, while on, counts
// packed tokens (metadata plus content sequence per chunk) and time spent
// inside the call.
type countingInferencer struct {
	inner core.ContentInferencer
	on    atomic.Bool

	mu     sync.Mutex
	tokens int
	busy   time.Duration
}

func (c *countingInferencer) InferContentBatch(ctx context.Context, m *adtd.Model, reqs []adtd.ContentRequest, n int) ([][][]float64, error) {
	if !c.on.Load() {
		return c.inner.InferContentBatch(ctx, m, reqs, n)
	}
	tokens := 0
	for _, r := range reqs {
		tokens += r.Menc.In.Len() + m.Encoder().BuildContentInput(r.Table, r.Cols, n).Len()
	}
	start := time.Now()
	rows, err := c.inner.InferContentBatch(ctx, m, reqs, n)
	d := time.Since(start)
	c.mu.Lock()
	c.tokens += tokens
	c.busy += d
	c.mu.Unlock()
	return rows, err
}

// serviceStats reads a service's /v1/stats through its public handler.
func serviceStats(h http.Handler) (*service.StatsResponse, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d", rec.Code)
	}
	var st service.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &st, nil
}

// toDetectTable renders a core table result the way the service's JSON
// answer does (the default-mode traced pass calls core directly to get its
// Report).
func toDetectTable(tr *core.TableResult) service.DetectTable {
	out := service.DetectTable{Table: tr.Table}
	for _, c := range tr.Columns {
		types := c.Admitted
		if types == nil {
			types = []string{}
		}
		out.Columns = append(out.Columns, service.DetectColumn{
			Column: c.Column, Types: types, Phase: c.Phase, Scanned: c.Phase == 2,
			Degraded: c.Degraded, DegradeReason: c.DegradeReason,
		})
	}
	return out
}
