package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/simdb"
)

// The fleet_zipf workload: single-table detects drawn Zipf(1.2) over WikiTable
// tenants, with whole-tenant detects mixed in, sent over HTTP to a tastefleet
// coordinator in front of in-process tasted replicas. An open loop at a
// fixed rate is timed from each request's due time; a closed loop with nproc
// clients gives throughput.
const (
	fleetReplicas  = 3
	fleetTenants   = 12
	fleetPerTenant = 10
	fleetLatency   = 0.05 // simdb.PaperLatency scale: serving layers, not sleeps, set latency
	zipfS          = 1.2
	wholeFrac      = 0.04
	// warmupDraws drawn requests follow the warm-up's catalogue sweep.
	warmupDraws = 400
	// openRate is the open loop's fixed arrival rate: a third of the
	// closed-loop serve_rps (425 req/s) measured at the commit that
	// introduced the benchmark. At half of it, queueing behind whole-tenant
	// requests on the nproc connections made p99 swing by half between
	// seeds. It is fixed, not derived per run.
	openRate = 140
	// openShare is the share of --seconds given to the open loop; the
	// closed loop gets the rest.
	openShare = 0.6
	// closedReserve bounds the planned requests the closed loop may use.
	closedReserve = 40000

	benchIDHeader = "X-Perfbench-Id"
)

func init() { workloads["fleet_zipf"] = runFleet }

// fleetEnv is a booted fleet plus the benchmark's wrappers.
type fleetEnv struct {
	fx      *fixture
	plan    *fleetPlan
	tables  map[string]dbPlan // tenant → its tables
	refs    map[string]string
	servers []*simdb.Server

	replicas    []*shipped
	replicaURLs []string
	httpSrvs    []*http.Server
	coord       *fleet.Coordinator
	coordURL    string
	client      *http.Client
	transports  []*http.Transport

	// warm is how many plan requests the warm-up sends.
	warm int

	tracing atomic.Bool
	spans   spanStore
}

// spanStore pairs, per benchmark request ID, the coordinator's handler time,
// the replica handler time and the replica's response size.
type spanStore struct {
	mu      sync.Mutex
	coord   map[string]time.Duration
	replica map[string]time.Duration
	bytes   map[string]int
}

func (s *spanStore) reset() {
	s.mu.Lock()
	s.coord, s.replica, s.bytes = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	s.mu.Unlock()
}

type idKey struct{}

// idTransport copies the benchmark request ID from the coordinator's
// incoming request context onto its outgoing replica request.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(idKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(benchIDHeader, id)
	}
	return t.base.RoundTrip(r)
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// wrapCoordinator times the coordinator's handler per benchmark request.
func (e *fleetEnv) wrapCoordinator(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(benchIDHeader)
		if id == "" || !e.tracing.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), idKey{}, id)))
		d := time.Since(start)
		e.spans.mu.Lock()
		e.spans.coord[id] += d
		e.spans.mu.Unlock()
	})
}

// wrapReplica times a replica's handler and counts its response bytes.
func (e *fleetEnv) wrapReplica(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(benchIDHeader)
		if id == "" || !e.tracing.Load() {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(start)
		e.spans.mu.Lock()
		e.spans.replica[id] += d
		e.spans.bytes[id] += cw.n
		e.spans.mu.Unlock()
	})
}

func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

func setupFleet(c runConfig) (*fleetEnv, error) {
	fx, err := loadFixture(c.fixtureDir)
	if err != nil {
		return nil, err
	}
	nOpen := openRequests(c.duration)
	plan, err := planFleet(fx.pools["wiki"], c.seed, fleetTenants, fleetPerTenant, warmupDraws+nOpen+closedReserve, wholeFrac, zipfS)
	if err != nil {
		return nil, err
	}
	e := &fleetEnv{fx: fx, plan: plan, tables: map[string]dbPlan{}, refs: fx.refs.Digests["wiki"]}
	e.spans.reset()
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	// One tenant database server per tenant, shared by every replica.
	for _, t := range plan.tenants {
		srv := simdb.NewServer(simdb.PaperLatency(fleetLatency))
		srv.LoadTables(t.name, t.tables)
		e.servers = append(e.servers, srv)
		e.tables[t.name] = t
	}
	urls := map[string]string{}
	for i := 0; i < fleetReplicas; i++ {
		s, err := newShipped(fx.model, c.trace)
		if err != nil {
			return nil, err
		}
		e.replicas = append(e.replicas, s)
		for j, t := range plan.tenants {
			s.svc.RegisterTenant(t.name, e.servers[j])
		}
		if s.ci != nil {
			s.ci.on.Store(false)
		}
		srv, url, err := serve(e.wrapReplica(s.svc.Handler()))
		if err != nil {
			return nil, err
		}
		e.httpSrvs = append(e.httpSrvs, srv)
		e.replicaURLs = append(e.replicaURLs, url)
		urls[fmt.Sprintf("replica%02d", i)] = url
	}
	// The coordinator in tastefleet's default configuration; its client is
	// the default transport's settings plus the ID-forwarding wrapper.
	coordTransport := http.DefaultTransport.(*http.Transport).Clone()
	e.transports = append(e.transports, coordTransport)
	e.coord = fleet.NewCoordinator(urls, fleet.Config{
		MaxInFlight: 64, QueueDepth: 32, QueueWait: 100 * time.Millisecond,
		RetrySeed: 1,
		Pool:      fleet.DefaultPoolConfig(),
		Client:    &http.Client{Transport: idTransport{base: coordTransport}},
	})
	e.coord.Start()
	srv, url, err := serve(e.wrapCoordinator(e.coord.Handler()))
	if err != nil {
		return nil, err
	}
	e.httpSrvs = append(e.httpSrvs, srv)
	e.coordURL = url
	// Load comes from this one process over at most nproc connections.
	clientTransport := &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	e.transports = append(e.transports, clientTransport)
	e.client = &http.Client{Transport: clientTransport, Timeout: 60 * time.Second}

	// Warm-up: the catalogue sweep, then the first drawn requests, closed
	// loop, answers checked. Every table is then in every cache tier of the
	// replica its single-table key routes to.
	e.warm = plan.sweep + warmupDraws
	rep := newReport()
	outs := make([]outcome, e.warm)
	runClosedLoop(runtime.NumCPU(), 0, e.warm, time.Hour, func(i int) { outs[i] = e.send(i, "") })
	e.verify(rep, 0, outs, &scoreboard{})
	if !rep.Correct || rep.Failed > 0 {
		return nil, fmt.Errorf("warm-up: %d failed, mismatches %v", rep.Failed, rep.mismatches)
	}
	ok = true
	return e, nil
}

func (e *fleetEnv) close() {
	for _, s := range e.httpSrvs {
		s.Close()
	}
	if e.coord != nil {
		e.coord.Stop()
	}
	for _, s := range e.replicas {
		s.close()
	}
	for _, t := range e.transports {
		t.CloseIdleConnections()
	}
}

// openRequests is the open loop's request count for a run length.
func openRequests(d time.Duration) int {
	return int(openRate * openShare * d.Seconds())
}

// outcome is one request's client-side result.
type outcome struct {
	status  int
	body    []byte
	err     error
	latency time.Duration // from send (closed loop) or due time (open loop)
	service time.Duration // from send
	// failed is set by verify: a transport error, a non-200 status or a
	// degraded answer.
	failed bool
}

func (e *fleetEnv) send(i int, id string) outcome {
	req := e.plan.reqs[i]
	dr := service.DetectRequest{Database: req.tenant, Pipelined: true}
	if req.table != "" {
		dr.Tables = []string{req.table}
	}
	body, err := json.Marshal(dr)
	if err != nil {
		return outcome{err: err}
	}
	hr, err := http.NewRequest(http.MethodPost, e.coordURL+"/v1/detect", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	hr.Header.Set("Content-Type", "application/json")
	if id != "" {
		hr.Header.Set(benchIDHeader, id)
	}
	sent := time.Now()
	var o outcome
	resp, err := e.client.Do(hr)
	if err != nil {
		o.err = err
	} else {
		o.body, o.err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
	}
	o.service = time.Since(sent)
	o.latency = o.service
	return o
}

// fleetAnswer is the part of a /v1/detect reply the benchmark checks.
type fleetAnswer struct {
	Tables   []json.RawMessage `json:"tables"`
	Degraded bool              `json:"degraded"`
}

// verify checks outcomes (plan indices first, first+1, …): every table in a
// 200 reply must match its reference digest byte for byte. It counts
// attempts, marks and counts failures, and returns how many failed.
func (e *fleetEnv) verify(rep *report, first int, outs []outcome, sb *scoreboard) int {
	failed := 0
	for k := range outs {
		o := &outs[k]
		rep.Attempted++
		req := e.plan.reqs[first+k]
		if o.err != nil || o.status != http.StatusOK {
			o.failed = true
			failed++
			continue
		}
		var ans fleetAnswer
		if err := json.Unmarshal(o.body, &ans); err != nil {
			rep.mismatch("request %d: bad reply: %v", first+k, err)
			continue
		}
		if ans.Degraded {
			o.failed = true
			failed++
			continue
		}
		db := e.tables[req.tenant]
		if req.table != "" {
			db = dbPlan{name: req.tenant}
			for _, t := range e.tables[req.tenant].tables {
				if t.Name == req.table {
					db.tables = append(db.tables, t)
				}
			}
		}
		tables := make([]service.DetectTable, 0, len(ans.Tables))
		for _, raw := range ans.Tables {
			var t service.DetectTable
			if err := json.Unmarshal(raw, &t); err != nil || tableDigest(raw) != e.refs[t.Table] {
				rep.mismatch("request %d: %s/%s answer differs from its reference", first+k, req.tenant, t.Table)
				continue
			}
			tables = append(tables, t)
		}
		checkTables(db, tables, e.refs, e.fx.truth, rep, sb)
	}
	rep.Failed += failed
	return failed
}

// openSample is one open-loop send: how late it went out and its latency
// from the due time.
type openSample struct {
	late, latency time.Duration
}

// runOpenLoop issues n requests at a fixed interval. Request i is due at
// start + i·interval; do(i) runs through spawn (a goroutine in production)
// and each request's latency is measured from its due time, so a stalled
// generator shows as latency rather than as fewer requests.
func runOpenLoop(n int, interval time.Duration, spawn func(func()), do func(i int)) []openSample {
	out := make([]openSample, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].late = time.Since(due)
		wg.Add(1)
		i := i
		spawn(func() {
			defer wg.Done()
			do(i)
			out[i].latency = time.Since(due)
		})
	}
	wg.Wait()
	return out
}

// runClosedLoop runs clients workers; each takes the next plan index in
// [first, first+limit) and sends it after its previous reply, until the
// duration is up or the plan is used. It returns how many were sent and the
// wall time.
func runClosedLoop(clients, first, limit int, d time.Duration, do func(i int)) (int, time.Duration) {
	var next atomic.Int64
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				k := int(next.Add(1)) - 1
				if k >= limit {
					return
				}
				do(first + k)
			}
		}()
	}
	wg.Wait()
	sent := int(next.Load())
	if sent > limit {
		sent = limit
	}
	return sent, time.Since(start)
}

// fleetSnapshot is the fleet-wide counter state the timed phases diff.
type fleetSnapshot struct {
	routing fleet.StatsResponse
	batch   service.BatcherStats
	cells   int
	queries int
	prom    map[string]float64
}

func (e *fleetEnv) snapshot() (*fleetSnapshot, error) {
	s := &fleetSnapshot{}
	resp, err := e.client.Get(e.coordURL + "/v1/stats")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&s.routing)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("coordinator stats: %w", err)
	}
	for _, r := range e.replicas {
		if r.batcher != nil {
			bs := r.batcher.Stats()
			s.batch.Submissions += bs.Submissions
			s.batch.Batches += bs.Batches
			s.batch.CoalescedBatches += bs.CoalescedBatches
			s.batch.QueueDelay += bs.QueueDelay
			s.batch.MaxBatchChunks = max(s.batch.MaxBatchChunks, bs.MaxBatchChunks)
		}
	}
	for _, srv := range e.servers {
		a := srv.Accounting().Snapshot()
		s.cells += a.CellsRead
		s.queries += a.Queries
	}
	resp, err = e.client.Get(e.replicaURLs[0] + "/metrics")
	if err != nil {
		return nil, err
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	s.prom = parseProm(string(text))
	return s, nil
}

// parseProm reads the sample lines of a Prometheus text exposition into
// series → value.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func runFleet(c runConfig, rep *report) error {
	e, err := setupRepeated(rep, func() (*fleetEnv, error) { return setupFleet(c) }, (*fleetEnv).close)
	if err != nil {
		return err
	}
	defer e.close()
	if c.trace {
		delete(rep.Metrics, "setup_s")
		e.spans.reset()
		e.tracing.Store(true)
		for _, r := range e.replicas {
			r.ci.on.Store(true)
		}
	}
	before, err := e.snapshot()
	if err != nil {
		return err
	}
	heapMiB := retainedMiB()

	// Open loop at the fixed rate, timed from due times.
	first := e.warm
	nOpen := openRequests(c.duration)
	openOuts := make([]outcome, nOpen)
	samples := runOpenLoop(nOpen, time.Second/openRate, func(f func()) { go f() }, func(i int) {
		openOuts[i] = e.send(first+i, e.id(first+i, c.trace))
	})
	for i := range openOuts {
		openOuts[i].latency = samples[i].latency
	}
	heapMiB = max(heapMiB, retainedMiB())
	// Closed loop with nproc clients for the rest of the run.
	closedFirst := first + nOpen
	closedOuts := make([]outcome, closedReserve)
	closedDur := c.duration - time.Duration(openShare*float64(c.duration))
	nClosed, closedWall := runClosedLoop(runtime.NumCPU(), closedFirst, closedReserve, closedDur, func(i int) {
		closedOuts[i-closedFirst] = e.send(i, e.id(i, c.trace))
	})
	closedOuts = closedOuts[:nClosed]
	heapMiB = max(heapMiB, retainedMiB())
	after, err := e.snapshot()
	if err != nil {
		return err
	}

	var openSB, closedSB scoreboard
	openFailed := e.verify(rep, first, openOuts, &openSB)
	closedFailed := e.verify(rep, closedFirst, closedOuts, &closedSB)
	var all scoreboard
	all.merge(openSB)
	all.merge(closedSB)
	rep.notef("open loop: %d sent at %d req/s, %d failed; closed loop: %d sent by %d clients in %.2f s, %d failed",
		nOpen, openRate, openFailed, nClosed, runtime.NumCPU(), closedWall.Seconds(), closedFailed)

	latencies := func(outs []outcome, pick func(outcome) time.Duration, keep func(int) bool, base int) []float64 {
		var v []float64
		for k, o := range outs {
			if !keep(base + k) {
				continue
			}
			if o.failed {
				v = append(v, math.Inf(1))
				continue
			}
			v = append(v, ms(pick(o)))
		}
		return v
	}
	all1 := func(int) bool { return true }
	whole := func(i int) bool { return e.plan.reqs[i].table == "" }
	openLat := latencies(openOuts, func(o outcome) time.Duration { return o.latency }, all1, first)
	svcTime := func(o outcome) time.Duration { return o.service }
	wholeLat := append(latencies(openOuts, svcTime, whole, first), latencies(closedOuts, svcTime, whole, closedFirst)...)

	if !c.trace {
		pct, p99 := tailQuantile(openLat, 99)
		rep.set("serve_p50_ms", median(openLat), "ms")
		rep.set("serve_rps", float64(nClosed-closedFailed)/closedWall.Seconds(), "req/s")
		rep.set("db_p50_ms", median(wholeLat), "ms")
		rep.set("columns_per_s", float64(closedSB.columns)/closedWall.Seconds(), "col/s")
		rep.set("scanned_ratio", all.scannedRatio(), "ratio")
		rep.set("cells_read_per_column", ratio(float64(after.cells-before.cells), float64(all.columns)), "cells")
		rep.set("f1_micro", all.f1(), "ratio")
		rep.set("heap_live_peak_mb", heapMiB, "MiB")
		rep.notef("serve_p50_ms over %d open-loop samples; open-loop p%g %.2f ms (not gated: it swung by 2x between seeds); db_p50_ms over %d whole-tenant requests (send to reply); fail_ratio %.4f",
			len(openLat), pct, p99, len(wholeLat), ratio(float64(rep.Failed), float64(rep.Attempted)))
		return nil
	}
	return e.tracedMetrics(rep, samples, before, after, append(openOuts, closedOuts...), first)
}

// id names a request for span pairing; untraced runs send none.
func (e *fleetEnv) id(i int, traced bool) string {
	if !traced {
		return ""
	}
	return strconv.Itoa(i)
}
