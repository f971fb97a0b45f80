package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/service"
)

// scoreboard accumulates answer-level outcomes: columns answered, columns
// scanned, and micro-F1 counts against ground truth.
type scoreboard struct {
	columns, scanned int
	tp, fp, fn       int
}

// addTable scores one table answer; truth maps column name → labels.
func (s *scoreboard) addTable(t service.DetectTable, truth map[string][]string) {
	for _, c := range t.Columns {
		s.columns++
		if c.Scanned {
			s.scanned++
		}
		s.addColumn(c.Types, truth[c.Column])
	}
}

func (s *scoreboard) addColumn(pred, truth []string) {
	want := make(map[string]bool, len(truth))
	for _, l := range truth {
		want[l] = true
	}
	for _, p := range pred {
		if want[p] {
			s.tp++
			delete(want, p)
		} else {
			s.fp++
		}
	}
	s.fn += len(want)
}

func (s *scoreboard) merge(o scoreboard) {
	s.columns += o.columns
	s.scanned += o.scanned
	s.tp += o.tp
	s.fp += o.fp
	s.fn += o.fn
}

func (s *scoreboard) scannedRatio() float64 { return ratio(float64(s.scanned), float64(s.columns)) }

func (s *scoreboard) f1() float64 {
	return ratio(float64(2*s.tp), float64(2*s.tp+s.fp+s.fn))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tailPercentiles are the candidates tailQuantile chooses from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// rankOf is the 1-based nearest rank of percentile pct among n samples, in
// integer arithmetic so that e.g. p90 of 100 samples is exactly rank 90.
func rankOf(pct float64, n int) int {
	p := int(math.Round(pct * 10))
	return max((p*n+999)/1000, 1)
}

// tailQuantile picks the highest percentile, at most maxPct, that leaves at
// least ten samples beyond it, and returns it with its nearest-rank value.
// With fewer than twenty samples it falls back to the median.
func tailQuantile(values []float64, maxPct float64) (pct, value float64) {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return 50, 0
	}
	for _, p := range tailPercentiles {
		if r := rankOf(p, n); p <= maxPct && n-r >= 10 {
			return p, sorted[r-1]
		}
	}
	return 50, sorted[rankOf(50, n)-1]
}

func median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if len(sorted) == 0 {
		return 0
	}
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// retainedMiB collects garbage twice and returns the runtime's live-heap
// metric in MiB. The first collection moves sync.Pool contents (the tensor
// arena) to the victim cache and the second frees them, so the reading is the
// memory the program retains (model, fixture, services, caches), not buffers
// parked for reuse.
func retainedMiB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
