// Command perfbench is the repository's benchmark: whole-database detection
// over WikiTable- and GitTables-shaped tenant databases, and HTTP serving
// through an in-process fleet, each in the configuration tasted ships with.
// See README.md in this directory for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload wiki_db --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --regen     # retrain the checkpoint, re-record references
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's outcome; workloads fill it.
type report struct {
	result
	// notes are human-readable lines printed before the result (sample
	// counts, chosen percentiles, per-phase outcome counts).
	notes []string
	// mismatches lists reference-digest failures (first few kept).
	mismatches []string
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}}
}

// unanswered stands in for an infinite latency (a failed request counts as
// missing every latency limit) so the result stays valid JSON.
const unanswered = 1e9

func (r *report) set(name string, value float64, unit string) {
	if math.IsInf(value, 0) || math.IsNaN(value) {
		value = unanswered
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) notef(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// mismatch records a correctness failure.
func (r *report) mismatch(format string, args ...interface{}) {
	r.Correct = false
	if len(r.mismatches) < 10 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// setupRepeats is how many times a run builds its whole set-up; setup_s is
// the median.
const setupRepeats = 5

func main() {
	var (
		workload = flag.String("workload", "", "workload: wiki_db, git_db or fleet_zipf")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics from a separate traced run")
		fixDir   = flag.String("fixture", "perfbench/fixture", "fixture directory (checkpoint, hash, references)")
		regen    = flag.Bool("regen", false, "retrain the checkpoint and re-record the reference digests, then exit")
	)
	flag.Parse()
	if *regen {
		if err := regenerate(*fixDir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: regen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d seconds %d trace %d; host nproc=%d GOMAXPROCS=%d %s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rep := newReport()
	if err := run(runConfig{fixtureDir: *fixDir, seed: *seed, duration: time.Duration(*seconds) * time.Second, trace: *trace == 1}, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := rep.finish(*trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, m := range rep.mismatches {
		fmt.Println("MISMATCH", m)
	}
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// runConfig is what every workload receives.
type runConfig struct {
	fixtureDir string
	seed       int64
	duration   time.Duration
	trace      bool
}

var workloads = map[string]func(runConfig, *report) error{}
