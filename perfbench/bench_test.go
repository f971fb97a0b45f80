package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/service"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{1000, 99, 990},
		{999, 95, 950},
		{100, 90, 90},
		{40, 75, 30},
		{19, 50, 10},
	}
	for _, c := range cases {
		pct, val := tailQuantile(seq(c.n), 99)
		if pct != c.wantPct || val != c.wantVal {
			t.Errorf("n=%d: got p%g=%g, want p%g=%g", c.n, pct, val, c.wantPct, c.wantVal)
		}
		beyond := 0
		for _, v := range seq(c.n) {
			if v > val {
				beyond++
			}
		}
		if c.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, pct)
		}
	}
	if pct, _ := tailQuantile(seq(100000), 99); pct != 99 {
		t.Errorf("cap ignored: chose p%g above p99", pct)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const interval = 5 * time.Millisecond
	const stall = 30 * time.Millisecond
	// A synchronous spawn makes request 0's stall hold up the generator, as
	// a stalled load generator would: later sends go out late, and their
	// latency is still counted from when they were due.
	inline := func(f func()) { f() }
	out := runOpenLoop(4, interval, inline, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	if out[0].late > interval {
		t.Errorf("request 0 late by %v", out[0].late)
	}
	if min := stall - interval; out[1].late < min {
		t.Errorf("request 1 late by %v, want ≥ %v", out[1].late, min)
	}
	for i, s := range out {
		if s.latency < s.late {
			t.Errorf("request %d: latency %v shorter than its lateness %v", i, s.latency, s.late)
		}
	}
	if out[0].latency < stall {
		t.Errorf("request 0 latency %v misses its own stall", out[0].latency)
	}

	// With goroutine spawns a slow request delays nobody else.
	out = runOpenLoop(4, interval, func(f func()) { go f() }, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	if out[1].late > stall/2 {
		t.Errorf("async: request 1 late by %v", out[1].late)
	}
}

func TestDigestCheckCatchesOneChangedColumn(t *testing.T) {
	tables := []service.DetectTable{
		{Table: "a", Columns: []service.DetectColumn{
			{Column: "x", Types: []string{"city"}, Phase: 1},
			{Column: "y", Types: []string{}, Phase: 2, Scanned: true},
		}},
		{Table: "b", Columns: []service.DetectColumn{{Column: "z", Types: []string{"year"}, Phase: 1}}},
	}
	refs := map[string]string{}
	for _, tab := range tables {
		raw, err := json.Marshal(tab)
		if err != nil {
			t.Fatal(err)
		}
		refs[tab.Table] = tableDigest(raw)
	}
	db := dbPlan{name: "db", tables: []*corpus.Table{{Name: "a"}, {Name: "b"}}}
	truth := map[string]map[string][]string{}

	rep := newReport()
	checkTables(db, tables, refs, truth, rep, &scoreboard{})
	if !rep.Correct {
		t.Fatalf("identical answers flagged: %v", rep.mismatches)
	}

	changed := make([]service.DetectTable, len(tables))
	copy(changed, tables)
	cols := append([]service.DetectColumn(nil), tables[0].Columns...)
	cols[1].Types = []string{"country"}
	changed[0].Columns = cols
	rep = newReport()
	checkTables(db, changed, refs, truth, rep, &scoreboard{})
	if rep.Correct {
		t.Fatal("one changed column went unnoticed")
	}
	for _, m := range rep.mismatches {
		if !strings.HasPrefix(m, "db/a:") {
			t.Errorf("unchanged table flagged: %s", m)
		}
	}

	rep = newReport()
	checkTables(db, tables[:1], refs, truth, rep, &scoreboard{})
	if rep.Correct {
		t.Fatal("a missing table went unnoticed")
	}
}

func TestFleetPlanIsPureFunctionOfSeed(t *testing.T) {
	pool := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(60), 5).Train
	plan := func(seed int64) *fleetPlan {
		p, err := planFleet(pool, seed, 4, 8, 500, 0.05, 1.2)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := plan(7), plan(7), plan(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different plans")
	}
	if reflect.DeepEqual(a.reqs, c.reqs) {
		t.Fatal("different seeds, same request sequence")
	}
	if a.sweep != 4*8+4 {
		t.Errorf("sweep of %d requests, want every table and tenant once", a.sweep)
	}
	whole, hits := 0, map[fleetReq]int{}
	for _, r := range a.reqs[a.sweep:] {
		if r.table == "" {
			whole++
		}
		hits[r]++
	}
	if whole == 0 || whole > 60 {
		t.Errorf("%d whole-tenant requests of 500 at 5%%", whole)
	}
	top := 0
	for _, n := range hits {
		top = max(top, n)
	}
	if top < 50 {
		t.Errorf("hottest key drew %d of 500: no Zipf skew", top)
	}
}

func TestTracerSelfTimesPartitionWall(t *testing.T) {
	tr := newTracer(true)
	start := time.Now()
	tr.begin("root")
	tr.begin("a")
	time.Sleep(2 * time.Millisecond)
	tr.begin("b")
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.end()
	tr.end()
	wall := time.Since(start)
	var sum time.Duration
	for _, d := range tr.self {
		sum += d
	}
	if sum > wall || wall-sum > time.Millisecond {
		t.Errorf("self times sum to %v of a %v wall", sum, wall)
	}
	if tr.self["b"] < 2*time.Millisecond || tr.self["a"] < 2*time.Millisecond {
		t.Errorf("self times %v", tr.self)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric names and units the
// benchmark prints identical to the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, want map[string]string) {
		got := map[string]string{}
		for _, m := range declared {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BENCHMARK.json %v, catalogue %v", kind, got, want)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s declared but not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
}
