package main

import (
	"fmt"
	"sort"

	"repro/internal/service"
)

// endToEnd and perLayer are the metric catalogue, name → unit. BENCHMARK.json
// lists the same names (a test checks it). Every workload reports every
// end-to-end metric with --trace 0 and every per-layer metric with --trace 1;
// a layer a workload does not exercise reports 0.
var endToEnd = map[string]string{
	"setup_s":               "s",
	"db_p50_ms":             "ms",
	"columns_per_s":         "col/s",
	"scanned_ratio":         "ratio",
	"cells_read_per_column": "cells",
	"f1_micro":              "ratio",
	"serve_p50_ms":          "ms",
	"serve_rps":             "req/s",
	"heap_live_peak_mb":     "MiB",
}

var perLayer = map[string]string{
	"simdb.connect_ms":                "ms",
	"simdb.metadata_ms":               "ms",
	"simdb.scan_ms":                   "ms",
	"simdb.queries":                   "count",
	"simdb.cells_read":                "cells",
	"prefetch.hits":                   "count",
	"prefetch.wasted":                 "count",
	"prefetch.skipped":                "count",
	"prefetch.hit_ratio":              "ratio",
	"pipeline.steals":                 "count",
	"pipeline.stolen_stages":          "count",
	"pipeline.overlap_x":              "x",
	"input.meta_ms":                   "ms",
	"input.content_ms":                "ms",
	"input.meta_tokens":               "tokens",
	"input.content_tokens":            "tokens",
	"adtd.meta_forward_ms":            "ms",
	"adtd.meta_forwards":              "count",
	"adtd.content_forward_ms":         "ms",
	"adtd.content_forwards":           "count",
	"adtd.content_chunks_per_forward": "chunks",
	"adtd.content_tokens_per_forward": "tokens",
	"batch.submissions":               "count",
	"batch.forwards":                  "count",
	"batch.coalesced_forwards":        "count",
	"batch.max_chunks":                "chunks",
	"batch.queue_wait_ms":             "ms",
	"batch.call_ms":                   "ms",
	"cache.latent_hit_ratio":          "ratio",
	"cache.result_hit_ratio":          "ratio",
	"cache.evictions":                 "count",
	"cache.coalesced":                 "count",
	"cache.bytes":                     "MiB",
	"service.handler_p50_ms":          "ms",
	"service.handler_p99_ms":          "ms",
	"service.response_bytes":          "bytes",
	"fleet.hop_p50_ms":                "ms",
	"fleet.hop_p99_ms":                "ms",
	"fleet.shed":                      "count",
	"fleet.failovers":                 "count",
	"fleet.replica_skew":              "x",
	"net.client_ms":                   "ms",
	"loadgen.late_p99_ms":             "ms",
	"walk.other_ms":                   "ms",
	"walk.wall_ms":                    "ms",
	"trace.overhead_x":                "x",
}

// finish completes the metric set a run must print: per-layer metrics a
// workload does not exercise read 0; any other gap or unit drift is a bug.
func (r *report) finish(trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
		for name, unit := range perLayer {
			if _, ok := r.Metrics[name]; !ok {
				r.set(name, 0, unit)
			}
		}
	}
	var bad []string
	for name, m := range r.Metrics {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			bad = append(bad, name)
		}
	}
	for name := range want {
		if _, ok := r.Metrics[name]; !ok {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metric set does not match the catalogue: %v", bad)
	}
	return nil
}

// setBatchMetrics reports the cross-request batcher's counters and the
// wrapper's call time, per request (n requests).
func setBatchMetrics(rep *report, bs service.BatcherStats, ci *countingInferencer, n float64) {
	rep.set("batch.submissions", float64(bs.Submissions)/n, "count")
	rep.set("batch.forwards", float64(bs.Batches)/n, "count")
	rep.set("batch.coalesced_forwards", float64(bs.CoalescedBatches)/n, "count")
	rep.set("batch.max_chunks", float64(bs.MaxBatchChunks), "chunks")
	rep.set("batch.queue_wait_ms", ms(bs.QueueDelay)/n, "ms")
	ci.mu.Lock()
	busy := ci.busy
	ci.mu.Unlock()
	rep.set("batch.call_ms", ms(busy)/n, "ms")
}

// setCacheMetrics reports both cache tiers and singleflight.
func setCacheMetrics(rep *report, lHits, lMiss, rHits, rMiss, evictions, coalesced, bytes int64) {
	rep.set("cache.latent_hit_ratio", ratio(float64(lHits), float64(lHits+lMiss)), "ratio")
	rep.set("cache.result_hit_ratio", ratio(float64(rHits), float64(rHits+rMiss)), "ratio")
	rep.set("cache.evictions", float64(evictions), "count")
	rep.set("cache.coalesced", float64(coalesced), "count")
	rep.set("cache.bytes", float64(bytes)/(1<<20), "MiB")
}
