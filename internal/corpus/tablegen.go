package corpus

import (
	"fmt"
	"math/rand"
	"sort"
)

// Column is one generated user-table column with its ground-truth labels.
type Column struct {
	Name    string
	Comment string
	SQLType string
	// Labels holds the ground-truth semantic types. Empty means the column
	// has no semantic type (the background NullType).
	Labels []string
	// Values holds the generated cell contents (one per row; "" = NULL).
	Values []string
	// Ambiguous records whether the generator deliberately hid the type
	// from metadata (uninformative name, no comment). Diagnostic only; the
	// detection models never see it.
	Ambiguous bool
}

// HasType reports whether the column carries any semantic type label.
func (c *Column) HasType() bool { return len(c.Labels) > 0 }

// Table is one generated user table.
type Table struct {
	Name    string
	Comment string
	Columns []*Column
}

// Rows returns the number of rows (all columns share the row count).
func (t *Table) Rows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return len(t.Columns[0].Values)
}

// Profile controls the statistical shape of a generated corpus. The two
// built-in profiles mirror the properties of WikiTable and GitTables that
// the paper's evaluation depends on (see DESIGN.md §1).
type Profile struct {
	// Name identifies the profile ("wikitable", "gittables").
	Name string
	// Tables is the number of tables to generate.
	Tables int
	// MinCols and MaxCols bound the per-table column count.
	MinCols, MaxCols int
	// Rows is the number of rows per table.
	Rows int
	// AmbiguousRate is the probability that a labelled column receives an
	// uninformative name and no comment, hiding its type from metadata.
	AmbiguousRate float64
	// CommentRate is the probability that a non-ambiguous column carries a
	// descriptive comment.
	CommentRate float64
	// NullRate is the probability that a column has no semantic type.
	NullRate float64
	// MultiLabelRate is the probability that a column with co-typed
	// primary type receives an additional label.
	MultiLabelRate float64
	// NullCellRate is the probability an individual cell is NULL (empty).
	NullCellRate float64
	// TableCommentRate is the probability a table carries a comment
	// (WikiTable page/section titles become table comments, §6.1.3).
	TableCommentRate float64
}

// WikiTableProfile mimics the WikiTable dataset: every column labelled,
// moderately ambiguous metadata so that roughly 45 % of columns need P2.
func WikiTableProfile(tables int) Profile {
	return Profile{
		Name:             "wikitable",
		Tables:           tables,
		MinCols:          2,
		MaxCols:          6,
		Rows:             60,
		AmbiguousRate:    0.45,
		CommentRate:      0.5,
		NullRate:         0,
		MultiLabelRate:   0.15,
		NullCellRate:     0.05,
		TableCommentRate: 0.8,
	}
}

// GitTablesProfile mimics GitTables-100K: CSV-style highly informative
// headers (low ambiguity) and ≈32 % columns without any semantic type.
func GitTablesProfile(tables int) Profile {
	return Profile{
		Name:             "gittables",
		Tables:           tables,
		MinCols:          3,
		MaxCols:          20,
		Rows:             60,
		AmbiguousRate:    0.02,
		CommentRate:      0.2,
		NullRate:         0.32,
		MultiLabelRate:   0.05,
		NullCellRate:     0.08,
		TableCommentRate: 0.3,
	}
}

// SmallTablesProfile mimics the Sherlock/Sato-scale corpora dominated by
// many narrow tables (see PAPERS.md): exactly 3 columns per table, with
// WikiTable-like ambiguity so a steady fraction of columns reaches Phase 2.
// This is the workload shape where per-table dispatch overhead and
// per-table Phase-2 forwards dominate (DESIGN.md §16).
func SmallTablesProfile(tables int) Profile {
	return Profile{
		Name:             "smalltables",
		Tables:           tables,
		MinCols:          3,
		MaxCols:          3,
		Rows:             60,
		AmbiguousRate:    0.45,
		CommentRate:      0.5,
		NullRate:         0,
		MultiLabelRate:   0.15,
		NullCellRate:     0.05,
		TableCommentRate: 0.8,
	}
}

var tableNameNouns = []string{"records", "entries", "items", "listing", "catalog", "log", "registry", "archive", "snapshot", "export"}
var tableThemes = []string{"customer", "order", "event", "track", "player", "city", "product", "session", "asset", "employee", "shipment", "survey", "device", "account", "library"}

// Generator produces tables for a profile over a type registry.
type Generator struct {
	Registry *Registry
	Profile  Profile
	rng      *rand.Rand
	serial   int
}

// NewGenerator creates a deterministic generator for the given seed.
func NewGenerator(reg *Registry, p Profile, seed int64) *Generator {
	validateProfile(p)
	return &Generator{Registry: reg, Profile: p, rng: rand.New(rand.NewSource(seed))}
}

func validateProfile(p Profile) {
	if p.Tables < 0 || p.MinCols < 1 || p.MaxCols < p.MinCols || p.Rows < 1 {
		panic(fmt.Sprintf("corpus: invalid profile %+v", p))
	}
}

// Table generates the next table.
func (g *Generator) Table() *Table {
	g.serial++
	rng := g.rng
	p := g.Profile
	theme := tableThemes[rng.Intn(len(tableThemes))]
	t := &Table{
		Name: fmt.Sprintf("%s_%s_%d", theme, tableNameNouns[rng.Intn(len(tableNameNouns))], g.serial),
	}
	if rng.Float64() < p.TableCommentRate {
		t.Comment = fmt.Sprintf("list of %s %s", theme, tableNameNouns[rng.Intn(len(tableNameNouns))])
	}
	ncols := p.MinCols + rng.Intn(p.MaxCols-p.MinCols+1)
	used := make(map[string]bool)
	for i := 0; i < ncols; i++ {
		c := g.column(rng, used)
		t.Columns = append(t.Columns, c)
	}
	return t
}

// column generates one column, choosing a type (or the background null
// type), its metadata, and its values.
func (g *Generator) column(rng *rand.Rand, usedNames map[string]bool) *Column {
	p := g.Profile
	if rng.Float64() < p.NullRate {
		return g.nullColumn(rng, usedNames)
	}
	types := g.Registry.Types()
	typ := types[rng.Intn(len(types))]
	c := &Column{SQLType: typ.SQLType, Labels: []string{typ.Name}}
	if len(typ.CoTypes) > 0 && rng.Float64() < p.MultiLabelRate {
		c.Labels = append(c.Labels, typ.CoTypes[rng.Intn(len(typ.CoTypes))])
	}
	sort.Strings(c.Labels)

	if rng.Float64() < p.AmbiguousRate {
		c.Ambiguous = true
		c.Name = uniqueName(rng, usedNames, g.ambiguousPool(typ.Category))
		// No comment: an explanatory comment would defeat the ambiguity.
	} else {
		c.Name = uniqueName(rng, usedNames, typ.ColumnNames)
		if len(typ.Comments) > 0 && rng.Float64() < p.CommentRate {
			c.Comment = typ.Comments[rng.Intn(len(typ.Comments))]
		}
	}
	c.Values = g.values(rng, typ.Gen)
	return c
}

func (g *Generator) nullColumn(rng *rand.Rand, usedNames map[string]bool) *Column {
	c := &Column{
		SQLType: "VARCHAR",
		Name:    uniqueName(rng, usedNames, NullColumnNames),
	}
	c.Values = g.values(rng, nullValueGen)
	return c
}

func (g *Generator) values(rng *rand.Rand, gen func(*rand.Rand) string) []string {
	vals := make([]string, g.Profile.Rows)
	for i := range vals {
		if rng.Float64() < g.Profile.NullCellRate {
			continue // empty string models SQL NULL
		}
		vals[i] = gen(rng)
	}
	return vals
}

// ambiguousPool merges the category pool with the global pool.
func (g *Generator) ambiguousPool(category string) []string {
	pool := append([]string(nil), AmbiguousNames[category]...)
	return append(pool, globalAmbiguousNames...)
}

// uniqueName draws from pool, suffixing with an index when the bare name is
// taken within the table (mirrors "num", "num2" in real schemas).
func uniqueName(rng *rand.Rand, used map[string]bool, pool []string) string {
	base := pool[rng.Intn(len(pool))]
	name := base
	for i := 2; used[name]; i++ {
		name = fmt.Sprintf("%s%d", base, i)
	}
	used[name] = true
	return name
}

// Dataset is a generated corpus with train/validation/test splits.
type Dataset struct {
	Name     string
	Registry *Registry
	Profile  Profile
	Train    []*Table
	Val      []*Table
	Test     []*Table
}

// Generate builds a full dataset for the profile, splitting 80/10/10.
func Generate(reg *Registry, p Profile, seed int64) *Dataset {
	g := NewGenerator(reg, p, seed)
	all := make([]*Table, p.Tables)
	for i := range all {
		all[i] = g.Table()
	}
	nTrain := p.Tables * 8 / 10
	nVal := p.Tables / 10
	return &Dataset{
		Name:     p.Name,
		Registry: reg,
		Profile:  p,
		Train:    all[:nTrain],
		Val:      all[nTrain : nTrain+nVal],
		Test:     all[nTrain+nVal:],
	}
}

// SplitStats summarizes one split for the Table 2 reproduction.
type SplitStats struct {
	Tables       int
	Columns      int
	Types        int
	PctNoType    float64 // percentage of columns without any semantic type
	MultiLabeled int
}

// StatsOf computes summary statistics over a set of tables.
func StatsOf(tables []*Table) SplitStats {
	s := SplitStats{Tables: len(tables)}
	types := make(map[string]bool)
	noType := 0
	for _, t := range tables {
		for _, c := range t.Columns {
			s.Columns++
			if !c.HasType() {
				noType++
				continue
			}
			if len(c.Labels) > 1 {
				s.MultiLabeled++
			}
			for _, l := range c.Labels {
				types[l] = true
			}
		}
	}
	s.Types = len(types)
	if s.Columns > 0 {
		s.PctNoType = 100 * float64(noType) / float64(s.Columns)
	}
	return s
}

// Stats returns statistics for the whole dataset and each split, in the
// order: all, train, val, test.
func (d *Dataset) Stats() [4]SplitStats {
	all := append(append(append([]*Table(nil), d.Train...), d.Val...), d.Test...)
	return [4]SplitStats{StatsOf(all), StatsOf(d.Train), StatsOf(d.Val), StatsOf(d.Test)}
}

// Tune produces the WikiTable-Sk dataset of §6.6: it keeps only the
// semantic types in retained, strips all other labels, and assigns the
// background type to columns left with no labels. Columns' values and
// metadata are shared with the original dataset (labels are rewritten on
// copies), and the registry is subset accordingly.
func (d *Dataset) Tune(retained []string) *Dataset {
	keep := make(map[string]bool, len(retained))
	for _, n := range retained {
		keep[n] = true
	}
	tuneTables := func(ts []*Table) []*Table {
		out := make([]*Table, len(ts))
		for i, t := range ts {
			nt := &Table{Name: t.Name, Comment: t.Comment}
			for _, c := range t.Columns {
				nc := &Column{
					Name: c.Name, Comment: c.Comment, SQLType: c.SQLType,
					Values: c.Values, Ambiguous: c.Ambiguous,
				}
				for _, l := range c.Labels {
					if keep[l] {
						nc.Labels = append(nc.Labels, l)
					}
				}
				nt.Columns = append(nt.Columns, nc)
			}
			out[i] = nt
		}
		return out
	}
	return &Dataset{
		Name:     fmt.Sprintf("%s-S%d", d.Name, len(retained)),
		Registry: d.Registry.Subset(retained),
		Profile:  d.Profile,
		Train:    tuneTables(d.Train),
		Val:      tuneTables(d.Val),
		Test:     tuneTables(d.Test),
	}
}

// SampleTypes deterministically selects k type names from the registry
// (random seed as in §6.6, "random seed 0").
func (d *Dataset) SampleTypes(k int, seed int64) []string {
	names := d.Registry.Names()
	if k >= len(names) {
		return names
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	out := names[:k]
	sort.Strings(out)
	return out
}
