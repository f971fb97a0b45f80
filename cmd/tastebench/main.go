// Command tastebench regenerates the paper's tables and figures (§6) over
// the synthetic substrate. With no flags it runs every experiment at full
// scale, training models on first use and caching checkpoints under
// ./artifacts so that subsequent runs skip training.
//
// Usage:
//
//	tastebench [-quick] [-experiment name] [-checkpoints dir] [-repeats n] [-latency scale]
//
// With -loadgen it instead boots an in-process fleet (N tasted replicas
// behind the coordinator, trained once, loopback sockets) and drives it
// with the seeded load generator, printing one JSON report line:
//
//	tastebench -loadgen -loadgen-mode open -rate 50 -requests 200
//	tastebench -loadgen -loadgen-mode closed -concurrency 8 -requests 200
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/tensor"
)

func main() {
	var (
		quick       = flag.Bool("quick", false, "minutes-scale smoke configuration (tiny corpora, 2 epochs)")
		experiment  = flag.String("experiment", "all", "experiment to run: all, "+strings.Join(experiments.AllExperiments, ", "))
		checkpoints = flag.String("checkpoints", "artifacts", "checkpoint cache directory (empty disables)")
		repeats     = flag.Int("repeats", 0, "timing repetitions per variant (0 = config default)")
		latency     = flag.Float64("latency", -1, "database latency scale, 1 = paper testbed (negative = config default)")
		verbose     = flag.Bool("v", true, "log training and run progress to stderr")

		parallelism = flag.Int("parallelism", tensor.DefaultParallelism(), "worker goroutines for the sharded tensor kernels")
		fastpath    = flag.Bool("fastpath", true, "use the fused no-grad inference kernels (disable to time the composed autograd ops)")
		quantize    = flag.Bool("quantize", false, "run inference through the int8 quantized kernels (lossy; no-op without AVX2)")
		trace       = flag.Bool("trace", false, "run one traced detection and print the per-phase latency breakdown (Table-7 style) instead of the experiments")

		loadgen       = flag.Bool("loadgen", false, "run the fleet load generator instead of the experiments (see -loadgen-* flags)")
		loadgenMode   = flag.String("loadgen-mode", "closed", "arrival process: open (Poisson at -rate req/s) or closed (-concurrency workers, zero think time)")
		loadgenDist   = flag.String("loadgen-dist", "uniform", "target-draw distribution: uniform or zipf (skewed toward a few hot tables — the cache-effectiveness workload)")
		loadgenZipfS  = flag.Float64("zipf-s", 1.2, "Zipf skew exponent for -loadgen-dist zipf (must be > 1)")
		loadgenRate   = flag.Float64("rate", 20, "open-loop arrival rate, requests/second")
		loadgenConc   = flag.Int("concurrency", 4, "closed-loop worker count")
		loadgenReqs   = flag.Int("requests", 100, "total requests per load run")
		loadgenSeed   = flag.Int64("loadgen-seed", 7, "workload seed (target picks and inter-arrival gaps are pure functions of it)")
		loadgenDeadl  = flag.Int64("deadline-ms", 0, "deadline_ms stamped on every generated request (0 = none)")
		fleetReplicas = flag.Int("fleet-replicas", 3, "in-process fleet size")
		fleetTables   = flag.Int("fleet-tables", 40, "corpus size behind the in-process fleet")
		fleetTenants  = flag.Int("fleet-tenants", 8, "tenant databases the corpus is sharded into")
		fleetInflight = flag.Int("max-inflight", 0, "coordinator admission cap (0 = default 64; lower it with -queue-depth 0 to provoke shedding)")
		fleetQueue    = flag.Int("queue-depth", 0, "coordinator admission queue depth")
		loadgenTarget = flag.String("target", "", "drive an external coordinator/replica at this base URL instead of booting the in-process fleet")

		benchcache = flag.Bool("benchcache", false, "run the tiered-cache benchmark (cold vs warm detect latency + byte parity) and print BENCH_8-format JSON lines")

		benchpipeline  = flag.Bool("benchpipeline", false, "run the work-stealing pipeline benchmark (sequential vs stealing over many small tables) and print BENCH_10-format JSON lines")
		pipelineTables = flag.Int("pipeline-tables", 200, "corpus size for -benchpipeline (narrow 3-column tables)")
		pipeWorkers    = flag.Int("pipeline-workers", 8, "work-stealing pool size for -benchpipeline")
		scanLookahead  = flag.Int("scan-lookahead", 0, "scan-prefetch window for -benchpipeline (0 = 2×workers, negative disables)")
	)
	flag.Parse()
	if *benchpipeline {
		if err := runBenchPipeline(benchPipelineOpts{
			tables: *pipelineTables, seed: *loadgenSeed, repeats: *repeats, latency: *latency,
			workers: *pipeWorkers, lookahead: *scanLookahead,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tastebench:", err)
			os.Exit(1)
		}
		return
	}
	if *benchcache {
		if err := runBenchCache(benchCacheOpts{
			tables: *fleetTables, seed: *loadgenSeed, requests: *loadgenReqs,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tastebench:", err)
			os.Exit(1)
		}
		return
	}
	if *loadgen {
		if err := runLoadgen(loadgenOpts{
			mode: *loadgenMode, dist: *loadgenDist, zipfS: *loadgenZipfS,
			rate: *loadgenRate, concurrency: *loadgenConc,
			requests: *loadgenReqs, seed: *loadgenSeed, deadlineMillis: *loadgenDeadl,
			replicas: *fleetReplicas, tables: *fleetTables, tenants: *fleetTenants,
			maxInFlight: *fleetInflight, queueDepth: *fleetQueue, target: *loadgenTarget,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tastebench:", err)
			os.Exit(1)
		}
		return
	}
	tensor.SetParallelism(*parallelism)
	tensor.SetFastPath(*fastpath)
	tensor.SetQuantize(*quantize)
	if *quantize && !tensor.QuantizeAvailable() {
		fmt.Fprintln(os.Stderr, "tastebench: -quantize set but the CPU lacks the required SIMD support; timing fp64")
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.CheckpointDir = *checkpoints
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}
	if *latency >= 0 {
		cfg.LatencyScale = *latency
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	suite := experiments.NewSuite(cfg)
	start := time.Now()

	// A first SIGINT/SIGTERM asks for a clean stop after the in-flight
	// experiment; a second one kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		switch {
		case *trace:
			done <- suite.TraceBreakdown(os.Stdout)
		case *experiment == "all":
			done <- suite.RunAll(os.Stdout)
		default:
			done <- suite.Run(*experiment, os.Stdout)
		}
	}()
	var err error
	select {
	case err = <-done:
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "tastebench: interrupted, exiting (press again to force-kill)")
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tastebench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tastebench: done in %v\n", time.Since(start).Round(time.Second))
}
