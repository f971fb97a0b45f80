# Build/test/bench entry points for the Taste reproduction.

GO ?= go

# Packages whose concurrency the race detector must vet: the tensor
# runtime's worker pool + arena, the sharded tiered cache with its
# singleflight groups, the pipelined scheduler, the fault-injecting simdb,
# the HTTP service with its cross-request micro-batcher, the lock-free
# metrics registry, the data-parallel training runtime with its gradient
# workers (plus the two model packages whose multi-worker training tests
# exercise it), the fleet coordinator with its health prober and admission
# queue, the shared retry core, and the deduplicated model registry whose
# page store backs concurrent publish/checkpoint traffic.
RACE_PKGS = ./internal/tensor/... ./internal/nn/... ./internal/train/... ./internal/adtd/... ./internal/sherlock/... ./internal/baselines/... ./internal/cache/... ./internal/pipeline/... ./internal/simdb/... ./internal/service/... ./internal/obs/... ./internal/fleet/... ./internal/retry/... ./internal/registry/...

.PHONY: build vet cross test perfbench-check race race-all fuzz ci bench bench-fleet bench-cache bench-pipeline bench-gate bench-smoke metrics-smoke fleet-smoke cache-smoke registry-smoke clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# cross vets the module, tests included, for arm64: it keeps the generic
# (non-SIMD) kernel fallbacks and the architecture-split test files
# compiling on a non-amd64 target.
cross:
	GOARCH=arm64 $(GO) vet ./...

test: build
	$(GO) test ./...

# perfbench-check vets and unit-tests perfbench/, a module of its own that
# imports this one through `replace ../`: `go build ./...` never compiles
# it, so an API change that breaks the benchmark would pass every other
# target. It runs offline and writes no file in the tree.
perfbench-check:
	cd perfbench && GOPROXY=off GOFLAGS=-mod=mod $(GO) vet . && GOPROXY=off GOFLAGS=-mod=mod $(GO) test .

race:
	$(GO) test -race $(RACE_PKGS)

# fuzz gives the /v1/detect fuzzer a short budget beyond its seed corpus.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzHandleDetect -fuzztime=20s ./internal/service/

# metrics-smoke boots tasted with -debug-addr, fires a traced detect, and
# asserts /metrics and /debug/pprof serve what DESIGN.md §9 promises.
metrics-smoke:
	bash scripts/metrics_smoke.sh

# fleet-smoke boots two tasted replicas behind a tastefleet coordinator,
# routes a detect, scrapes the aggregated /metrics, then kills a replica
# and asserts failover (DESIGN.md §12).
fleet-smoke:
	bash scripts/fleet_smoke.sh

# cache-smoke boots tasted with both cache tiers on, repeats a detect, and
# asserts the warm response is byte-identical to the cold one while the
# warm-hit counters on /metrics move (DESIGN.md §14).
cache-smoke:
	bash scripts/cache_smoke.sh

# registry-smoke runs the train → publish → serve → feedback → republish →
# hot-swap loop against real binaries and asserts the fine-tuned publish
# dedups against the base version (DESIGN.md §15).
registry-smoke:
	bash scripts/registry_smoke.sh

# ci is the gate a pull request must pass: vet (native and arm64), build,
# the full test suite, the benchmark module's vet and tests, the race
# detector over every concurrent package, the serving smoke tests, the
# pipeline bench gate, the benchmark smoke run and the /v1/detect fuzzer.
# .github/workflows/ci.yml runs these same targets, one step each, in this
# order.
ci: vet cross test perfbench-check race metrics-smoke fleet-smoke cache-smoke registry-smoke bench-gate bench-smoke fuzz

# race-all adds internal/core, whose fixture trains a model and needs a
# far longer deadline under the race detector's ~10x slowdown.
race-all:
	$(GO) test -race -timeout 45m $(RACE_PKGS) ./internal/core/...

# bench runs the compute-runtime benchmark set (BENCH_1.json: matmul
# kernels, attention forward, batched Phase-2 inference, end-to-end
# detection), the training-runtime set (BENCH_5.json: sharded Adam and
# one fine-tuning epoch, serial vs four gradient workers), the
# quantized-inference set (BENCH_6.json: int8 kernels back-to-back with
# their fp64 counterparts across the GOMAXPROCS matrix), the
# fleet-serving set (BENCH_7.json: seeded open-/closed-loop load against
# an in-process 3-replica fleet — latency quantiles, throughput, shed rate,
# per-replica distribution), the tiered-cache set (BENCH_8.json:
# cold vs warm detect p50/p99, result-cache speedup, byte parity, plus a
# Zipf-skewed fleet load run), and the pipeline set (BENCH_10.json:
# whole-database detection over 200 narrow tables, sequential vs
# work-stealing, with byte parity enforced).
bench:
	scripts/bench.sh BENCH_1.json BENCH_5.json BENCH_6.json BENCH_7.json BENCH_8.json BENCH_10.json

# bench-fleet re-records only BENCH_7.json (the fleet suite trains a model,
# so it dominates a full bench run's wall-clock).
bench-fleet:
	FLEET_ONLY=1 scripts/bench.sh BENCH_1.json BENCH_5.json BENCH_6.json BENCH_7.json BENCH_8.json

# bench-cache re-records only BENCH_8.json: cold/warm latency quantiles for
# the latent and result tiers, the measured hit-path speedup, and the
# cache-friendly Zipf load-generator run.
bench-cache:
	CACHE_ONLY=1 scripts/bench.sh BENCH_1.json BENCH_5.json BENCH_6.json BENCH_7.json BENCH_8.json

# bench-pipeline re-records only BENCH_10.json: the work-stealing scheduler
# suite over the many-small-tables corpus.
bench-pipeline:
	PIPELINE_ONLY=1 scripts/bench.sh BENCH_1.json BENCH_5.json BENCH_6.json BENCH_7.json BENCH_8.json BENCH_10.json

# bench-gate re-runs the pipeline suite and fails on a >15% p50 regression
# against the checked-in BENCH_10.json — but only when the baseline was
# recorded on the same platform/cpus/go version (latency comparisons are
# only honest back-to-back on one machine; elsewhere it skips). Byte parity
# is enforced unconditionally by the benchmark itself.
bench-gate:
	sh scripts/bench_gate.sh BENCH_10.json

# bench-smoke compiles and runs every benchmark exactly once — no timing
# value, but it keeps the benchmark code from rotting between full runs.
# The second pass repeats the quantized benchmarks so the int8 kernels are
# exercised even where the default run skips them.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) test -run='^$$' -bench='BenchmarkQuantAttentionCore128$$|BenchmarkLinearQuantInto128x64x192$$|BenchmarkSelfAttention128Quant$$' -benchtime=1x ./internal/tensor/ ./internal/nn/

clean:
	$(GO) clean ./...
	rm -f BENCH_1.json BENCH_5.json BENCH_6.json BENCH_7.json BENCH_8.json BENCH_10.json
