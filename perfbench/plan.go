package main

import (
	"fmt"
	"math/rand"

	"repro/internal/corpus"
)

// dbPlan is one tenant database: a name and the pool tables it holds.
type dbPlan struct {
	name   string
	tables []*corpus.Table
}

// planDBs draws dbs tenant databases of perDB distinct pool tables each. No
// table appears twice, so within one pass every detect is a cold fill. The
// plan is a pure function of (pool, seed, dbs, perDB).
func planDBs(pool []*corpus.Table, seed int64, prefix string, dbs, perDB int) ([]dbPlan, error) {
	if dbs*perDB > len(pool) {
		return nil, fmt.Errorf("plan needs %d tables, pool has %d", dbs*perDB, len(pool))
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(pool))
	out := make([]dbPlan, dbs)
	for i := range out {
		out[i].name = fmt.Sprintf("%s%02d", prefix, i)
		for _, idx := range order[i*perDB : (i+1)*perDB] {
			out[i].tables = append(out[i].tables, pool[idx])
		}
	}
	return out, nil
}

// fleetReq is one planned fleet request: a single-table detect, or a
// whole-tenant detect when table is empty.
type fleetReq struct {
	tenant, table string
}

// fleetPlan is the fleet workload's request sequence. Its first sweep
// requests visit every table and then every tenant once (the warm-up starts
// with them); the drawn requests follow.
type fleetPlan struct {
	tenants []dbPlan
	reqs    []fleetReq
	sweep   int
}

// fleetCatalogueSeed fixes which pool tables form the fleet's tenants and
// their popularity ranks, so every seed sees the same hot set; the run seed
// draws the request sequence.
const fleetCatalogueSeed = 1

// planFleet builds the tenant catalogue and a request sequence: the sweep,
// then n drawn requests. Each drawn request is, with probability wholeFrac,
// a whole-tenant detect of a uniformly drawn tenant; otherwise a
// single-table detect drawn Zipf(s) over all (tenant, table) pairs in
// catalogue order. The plan is a pure function of its arguments.
func planFleet(pool []*corpus.Table, seed int64, tenants, perTenant, n int, wholeFrac, s float64) (*fleetPlan, error) {
	dbs, err := planDBs(pool, fleetCatalogueSeed, "tenant", tenants, perTenant)
	if err != nil {
		return nil, err
	}
	var flat []fleetReq
	for _, db := range dbs {
		for _, t := range db.tables {
			flat = append(flat, fleetReq{tenant: db.name, table: t.Name})
		}
	}
	p := &fleetPlan{tenants: dbs}
	p.reqs = append(p.reqs, flat...)
	for _, db := range dbs {
		p.reqs = append(p.reqs, fleetReq{tenant: db.name})
	}
	p.sweep = len(p.reqs)
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, s, 1, uint64(len(flat)-1))
	for i := 0; i < n; i++ {
		if rng.Float64() < wholeFrac {
			p.reqs = append(p.reqs, fleetReq{tenant: dbs[rng.Intn(len(dbs))].name})
			continue
		}
		p.reqs = append(p.reqs, flat[zipf.Uint64()])
	}
	return p, nil
}
