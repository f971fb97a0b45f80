package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"
)

// Prometheus series the fleet's traced run diffs. All replicas share the
// process-wide registry, so one replica's /metrics covers the fleet.
const (
	promMetaSum      = `taste_adtd_forward_seconds_sum{kind="meta"}`
	promMetaCount    = `taste_adtd_forward_seconds_count{kind="meta"}`
	promContentSum   = `taste_adtd_forward_seconds_sum{kind="content"}`
	promContentCount = `taste_adtd_forward_seconds_count{kind="content"}`
	promChunks       = `taste_adtd_content_chunks_total`
	promSimdbSum     = `taste_simdb_op_seconds_sum{op="%s"}`
)

// overheadBlocks × overheadBlock requests measure tracing overhead: blocks
// alternate untraced and traced, closed loop, each from fresh plan entries.
const (
	overheadBlocks = 4
	overheadBlock  = 200
)

// tracedMetrics derives the fleet's per-layer metrics from the traced open
// and closed phases (outs are plan indices first, first+1, …), then measures
// tracing overhead.
func (e *fleetEnv) tracedMetrics(rep *report, samples []openSample, before, after *fleetSnapshot, outs []outcome, first int) error {
	n := float64(len(outs))
	var handler, hop, client []float64
	bytes := 0
	e.spans.mu.Lock()
	for k, o := range outs {
		id := strconv.Itoa(first + k)
		co, ok1 := e.spans.coord[id]
		re, ok2 := e.spans.replica[id]
		if !ok1 || !ok2 || o.failed {
			continue
		}
		handler = append(handler, ms(re))
		hop = append(hop, ms(co-re))
		client = append(client, ms(o.service-co))
		bytes += e.spans.bytes[id]
	}
	e.spans.mu.Unlock()
	_, h99 := tailQuantile(handler, 99)
	_, hop99 := tailQuantile(hop, 99)
	rep.set("service.handler_p50_ms", median(handler), "ms")
	rep.set("service.handler_p99_ms", h99, "ms")
	rep.set("service.response_bytes", ratio(float64(bytes), float64(len(handler))), "bytes")
	rep.set("fleet.hop_p50_ms", median(hop), "ms")
	rep.set("fleet.hop_p99_ms", hop99, "ms")
	rep.set("net.client_ms", median(client), "ms")
	late := make([]float64, len(samples))
	for i, s := range samples {
		late[i] = ms(s.late)
	}
	_, late99 := tailQuantile(late, 99)
	rep.set("loadgen.late_p99_ms", late99, "ms")

	rb, ra := before.routing.Routing, after.routing.Routing
	rep.set("fleet.shed", float64(ra.Shed-rb.Shed), "count")
	rep.set("fleet.failovers", float64(ra.Failovers-rb.Failovers), "count")
	var maxReq, sumReq float64
	for name, v := range ra.PerReplica {
		d := float64(v - rb.PerReplica[name])
		sumReq += d
		maxReq = max(maxReq, d)
	}
	rep.set("fleet.replica_skew", ratio(maxReq, sumReq/float64(fleetReplicas)), "x")

	cb, ca := before.routing.CacheTotals, after.routing.CacheTotals
	if cb != nil && ca != nil {
		var evictions int64
		for name, blk := range after.routing.Caches {
			old := before.routing.Caches[name]
			evictions += blk.Latent.Evictions + blk.Result.Evictions - old.Latent.Evictions - old.Result.Evictions
		}
		setCacheMetrics(rep, ca.LatentHits-cb.LatentHits, ca.LatentMisses-cb.LatentMisses,
			ca.ResultHits-cb.ResultHits, ca.ResultMisses-cb.ResultMisses, evictions, ca.Coalesced-cb.Coalesced, ca.Bytes)
	}

	bs := after.batch
	bs.Submissions -= before.batch.Submissions
	bs.Batches -= before.batch.Batches
	bs.CoalescedBatches -= before.batch.CoalescedBatches
	bs.QueueDelay -= before.batch.QueueDelay
	agg := &countingInferencer{}
	tokens := 0
	for _, r := range e.replicas {
		r.ci.mu.Lock()
		agg.busy += r.ci.busy
		tokens += r.ci.tokens
		r.ci.mu.Unlock()
	}
	setBatchMetrics(rep, bs, agg, n)

	d := func(series string) float64 { return after.prom[series] - before.prom[series] }
	rep.set("adtd.meta_forward_ms", d(promMetaSum)*1000/n, "ms")
	rep.set("adtd.meta_forwards", d(promMetaCount)/n, "count")
	rep.set("adtd.content_forward_ms", d(promContentSum)*1000/n, "ms")
	rep.set("adtd.content_forwards", d(promContentCount)/n, "count")
	rep.set("adtd.content_chunks_per_forward", ratio(d(promChunks), d(promContentCount)), "chunks")
	rep.set("adtd.content_tokens_per_forward", ratio(float64(tokens), d(promContentCount)), "tokens")
	op := func(name string) float64 { return d(fmt.Sprintf(promSimdbSum, name)) * 1000 / n }
	rep.set("simdb.connect_ms", op("connect"), "ms")
	rep.set("simdb.metadata_ms", op("list_tables")+op("table_metadata"), "ms")
	rep.set("simdb.scan_ms", op("scan"), "ms")
	rep.set("simdb.queries", float64(after.queries-before.queries)/n, "count")
	rep.set("simdb.cells_read", float64(after.cells-before.cells)/n, "cells")

	overhead := e.traceOverhead(rep, first+len(outs))
	rep.set("trace.overhead_x", overhead, "x")
	rep.notef("traced: %d requests paired across client, coordinator and replica spans of %d sent", len(handler), len(outs))
	return nil
}

// traceOverhead runs alternating untraced and traced closed-loop blocks from
// plan index first on, checks their answers, and returns traced wall ÷
// untraced wall.
func (e *fleetEnv) traceOverhead(rep *report, first int) float64 {
	var walls [2]time.Duration
	for b := 0; b < overheadBlocks; b++ {
		traced := b%2 == 1
		e.tracing.Store(traced)
		for _, r := range e.replicas {
			r.ci.on.Store(traced)
		}
		start := first + b*overheadBlock
		outs := make([]outcome, overheadBlock)
		_, wall := runClosedLoop(runtime.NumCPU(), start, overheadBlock, time.Hour, func(i int) {
			outs[i-start] = e.send(i, e.id(i, traced))
		})
		walls[b%2] += wall
		e.verify(rep, start, outs, &scoreboard{})
	}
	e.tracing.Store(true)
	return ratio(float64(walls[1]), float64(walls[0]))
}
