package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/govern"
	"repro/internal/morsel"
	"repro/internal/qgm"
	"repro/internal/sampling"
	"repro/internal/storage"
	"repro/internal/value"
)

// collection is one statement's pass through the JITS compile-time pipeline
// (DESIGN.md §5):
//
//	survey → per base table, in name order: decide → admit → collect → report
//
// The stages interleave per table because a decision reads the archive the
// previous table's collection just wrote (a materialization can evict another
// table's grid).
type collection struct {
	j     *JITS
	ctx   context.Context
	ts    int64
	meter *costmodel.Meter // the statement's compilation meter
	w     costmodel.Weights
	res   *govern.Reservation // nil disables memory accounting

	qs   *QueryStats
	prep *PrepareReport
	sens *Sensitivity
	cn   map[string]bool // tables the CN baseline chose; nil under the lightweight analysis

	// admit's accounts: the meter reading collection started at and the
	// rows drawn since.
	startUnits float64
	rowsUsed   int
}

// tableWork is one base table's share of the statement.
type tableWork struct {
	tbl    *storage.Table
	groups [][]qgm.Predicate // candidate groups of every instance, deduplicated
	// The columns a sample of the table is read for, as ascending ordinals:
	// those a candidate group references (their domains grid the archive),
	// those an equi-join of any block compares on an instance of the table
	// (their NDVs price the join), and the union of the two, which is all a
	// draw gathers.
	groupCols, joinCols, gathered []int
	report                        TableReport
}

// degradation is the one event that ends a table's collection without
// statistics; the zero value means the table did not degrade.
type degradation struct {
	cause  costmodel.DegradeCause
	reason string
}

// survey refreshes cardinalities, lets the CN baseline probe plans, and
// returns the statement's tables that have local predicates, in name order,
// each with the candidate groups of all its instances (they share one sample)
// and the columns its sample is read for.
func (c *collection) survey(q *qgm.Query, db *storage.Database) ([]*tableWork, error) {
	// Row counts are needed for *every* table of the query (§3.2), not only
	// those with local predicates: a metadata read, free in the cost model.
	for _, blk := range q.Blocks {
		for _, ti := range blk.Tables {
			tbl, ok := db.Table(ti.Table)
			if !ok {
				return nil, fmt.Errorf("jits: table %q not in database", ti.Table)
			}
			card := int64(tbl.RowCount())
			c.qs.cards[ti.Table] = card
			c.j.archive.SetCardinality(ti.Table, card, c.ts)
		}
	}

	// The CN baseline decides up front by probing plans, whose costing
	// consumes the cardinalities just refreshed.
	if c.j.cfg.Strategy == StrategyCN && !c.j.cfg.ForceCollect {
		c.cn = make(map[string]bool)
		for _, blk := range q.Blocks {
			for _, name := range c.j.cnDecide(blk, c.qs, c.meter, c.w) {
				c.cn[name] = true
			}
		}
	}

	byTable := make(map[string]*tableWork)
	seen := make(map[string]bool) // predicate-group names, which carry their table
	var work []*tableWork
	for _, tc := range AnalyzeQuery(q, DefaultMaxPredsPerTable) {
		tw, ok := byTable[tc.Table]
		if !ok {
			tbl, _ := db.Table(tc.Table) // every table of every block was found above
			tw = &tableWork{tbl: tbl, report: TableReport{Table: tc.Table, Alias: tc.Alias}}
			byTable[tc.Table] = tw
			work = append(work, tw)
		}
		for _, g := range tc.Groups {
			if key := qgm.PredicateGroupKey(tc.Table, g); !seen[key] {
				seen[key] = true
				tw.groups = append(tw.groups, g)
			}
		}
	}
	sort.Slice(work, func(i, k int) bool { return work[i].report.Table < work[k].report.Table })

	// A table's three column sets are thirds of its share of one array the
	// JITS keeps from statement to statement (PrepareBudgeted holds j.mu):
	// no set holds more ordinals than the table has columns.
	width := 0
	for _, tw := range work {
		width += tw.tbl.Schema().NumColumns()
	}
	c.j.colSets = slices.Grow(c.j.colSets[:0], 3*width)
	free := c.j.colSets[:3*width]
	for _, tw := range work {
		n := tw.tbl.Schema().NumColumns()
		tw.groupCols, tw.joinCols, tw.gathered = free[:0:n], free[n:n:2*n], free[2*n:2*n:3*n]
		free = free[3*n:]
		for _, g := range tw.groups {
			for _, p := range g {
				tw.groupCols = addOrdinal(tw.groupCols, p.Ordinal)
			}
		}
	}
	for _, blk := range q.Blocks {
		for _, jp := range blk.JoinPreds {
			if tw := byTable[blk.Tables[jp.LeftSlot].Table]; tw != nil {
				tw.joinCols = addOrdinal(tw.joinCols, jp.LeftOrd)
			}
			if tw := byTable[blk.Tables[jp.RightSlot].Table]; tw != nil {
				tw.joinCols = addOrdinal(tw.joinCols, jp.RightOrd)
			}
		}
	}
	for _, tw := range work {
		tw.gathered = append(tw.gathered, tw.groupCols...)
		for _, col := range tw.joinCols {
			tw.gathered = addOrdinal(tw.gathered, col)
		}
	}

	// The cost budget meters collection only, not the CN probes above.
	c.startUnits = c.meter.Units()
	return work, nil
}

// decide marks whether the table's statistics must be refreshed by sampling.
func (c *collection) decide(tw *tableWork) {
	tr := &tw.report
	tr.GroupsEvaluated = len(tw.groups)
	switch {
	case c.j.cfg.ForceCollect:
		tr.Collected = true
	case c.cn != nil:
		tr.Collected = c.cn[tr.Table]
	default:
		act := TableActivity{Table: tr.Table, Cardinality: int64(tw.tbl.RowCount()), UDI: tw.tbl.UDICounter().Total()}
		tr.Collected, tr.Scores = c.sens.ShouldCollectStats(act, tw.groups)
	}
}

// admit answers whether a marked table may be sampled now: the rows the
// sampler may draw and the bytes reserved for them (returned when the sample
// is released), or the degradation that refuses it — in order cancellation,
// the cost budget and the row budget, which also truncates the last admitted
// sample to what is left.
func (c *collection) admit(tw *tableWork) (size int, reserved int64, deg degradation) {
	cfg := &c.j.cfg
	switch {
	case c.ctx.Err() != nil:
		return 0, 0, degradation{costmodel.DegradeCancelled, fmt.Sprintf("cancelled: %v", c.ctx.Err())}
	case cfg.sampleBudgetUnits > 0 && c.meter.Units()-c.startUnits >= cfg.sampleBudgetUnits:
		return 0, 0, degradation{costmodel.DegradeBudgetExhausted, "cost budget exhausted"}
	case cfg.sampleBudgetRows > 0 && c.rowsUsed >= cfg.sampleBudgetRows:
		return 0, 0, degradation{costmodel.DegradeBudgetExhausted, "sample-row budget exhausted"}
	}
	size = cfg.SampleSize
	if cfg.sampleBudgetRows > 0 && c.rowsUsed+size > cfg.sampleBudgetRows {
		size = cfg.sampleBudgetRows - c.rowsUsed
	}
	// Reserve for what the sampler will really materialize: small tables are
	// copied whole whatever the nominal size, and a draw fills only the
	// gathered columns.
	reserved = int64(sampling.EffectiveSampleRows(tw.tbl.RowCount(), size)) * govern.EstimateRowBytes(len(tw.gathered))
	c.res.Grow(reserved)
	return size, reserved, degradation{}
}

// collect samples the admitted table, timing the pass, and releases the
// reservation (QSS live in the archive, the sample is transient); a failed
// pass comes back as the degradation it amounts to.
func (c *collection) collect(tw *tableWork, size int, reserved int64) degradation {
	tr := &tw.report
	start := time.Now()
	err := c.sample(tw, size, start)
	c.res.Shrink(reserved)
	tr.SampleWall = time.Since(start)

	if err == nil {
		return degradation{}
	}
	if c.ctx.Err() != nil {
		return degradation{costmodel.DegradeCancelled, fmt.Sprintf("cancelled: %v", err)}
	}
	if pe := (*morsel.PanicError)(nil); errors.As(err, &pe) {
		return degradation{costmodel.DegradePanic, fmt.Sprintf("recovered panic: %v", pe.Val)}
	}
	return degradation{costmodel.DegradeSamplingError, fmt.Sprintf("sampling error: %v", err)}
}

// sample is collect's body — draw → evaluate → count → materialize, each
// timed into the report's Laps from start on, so the laps add up to the
// pass. A panic anywhere in it is an error (the morsel runner hands back its
// workers', this recovers the rest), so the table degrades instead of
// crashing the statement.
func (c *collection) sample(tw *tableWork, size int, start time.Time) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &morsel.PanicError{Val: p}
		}
	}()
	j, cfg, tr, groups := c.j, &c.j.cfg, &tw.report, tw.groups
	name, schema := tr.Table, tw.tbl.Schema()
	lap := func(d *time.Duration) {
		now := time.Now()
		*d, start = now.Sub(start), now
	}

	sample, err := j.sampler.SampleColumns(c.ctx, tw.tbl, size, c.meter, c.w, cfg.Parallelism, tw.gathered)
	if err != nil {
		return err
	}
	rows := sample.Rows()
	lap(&tr.Laps.Draw)

	if cfg.PerGroupSampling && len(groups) > 1 {
		// Prototype-faithful costing: each further group pays its own query.
		c.meter.Add(c.w.SampleRow * float64(rows) * float64(len(groups)-1))
	}
	sels, err := j.sampler.EvaluateColumns(sample, groups, c.meter, c.w, cfg.Parallelism)
	if err != nil {
		return err
	}
	floor := sampling.SelectivityFloor(rows)
	lap(&tr.Laps.Eval)

	card := int64(tw.tbl.RowCount())
	j.archive.SetCardinality(name, card, c.ts)
	c.qs.cards[name] = card

	// What the optimizer reads of a sampled column: a join column's
	// distinct-value estimate (Duj1), to price its equi-joins, and a group
	// column's domain, to grid the archive.
	for _, col := range tw.joinCols {
		if ndv := j.sampler.CountColumn(sample.Col(col)).EstimateNDV(int(card)); ndv > 0 {
			j.archive.SetColumnNDV(name, schema.Column(col).Name, ndv, c.ts)
		}
	}
	domains := make(map[string]ColumnDomain, len(tw.groupCols))
	for _, col := range tw.groupCols {
		addDomain(domains, schema.Column(col), sample.Col(col))
	}
	lap(&tr.Laps.NDV)

	for gi, g := range groups {
		sel := sels[gi]
		if sel <= 0 {
			sel = floor
		}
		c.qs.fresh[qgm.PredicateGroupKey(name, g)] = sel

		if cfg.ForceCollect || c.sens.ShouldMaterialize(name, g) {
			touched := j.archive.Materialize(name, g, sel, c.ts, domains)
			c.meter.Add(c.w.HistUpdate * float64(touched))
			tr.GroupsMaterialized++
			j.history.ObserveMerge(c.ts, qgm.ColumnGroup(name, qgm.GroupColumns(g)))
		}
	}
	tr.SampleRows = rows
	lap(&tr.Laps.Materialize)
	return nil
}

// report closes the table's TableReport. A degradation is counted here and
// nowhere else: its cause indexes the always-on counts (which the metric
// reads) and stamps the report; UDI stays, so the next statement reconsiders
// the table.
// A collected table's sample is charged to the row budget and its UDI
// activity, now absorbed into fresh statistics, is reset.
func (c *collection) report(tw *tableWork, deg degradation) {
	tr := &tw.report
	switch {
	case deg.cause != costmodel.DegradeNone:
		tr.Collected = false
		tr.Degraded, tr.DegradeCause, tr.DegradeReason = true, deg.cause, deg.reason
		c.prep.Degraded = true
		c.prep.FallbackTables = append(c.prep.FallbackTables, tr.Table)
		c.j.degrade.Record(deg.cause)
	case tr.Collected:
		c.rowsUsed += tr.SampleRows
		c.j.sampleRows.Add(int64(tr.SampleRows))
		c.j.tablesCollected.Add(1)
		tw.tbl.ResetUDI()
	}
	c.prep.Tables = append(c.prep.Tables, *tr)
}

// WorkloadStatistics builds the paper's "workload statistics" baseline with
// the collect stage's kernels over whole tables: once per table, its
// cardinality and the exact NDV and domain of every column, then every
// candidate group of every query, in workload order, materialized at its
// exact selectivity (a recurring group is merged again, as a per-query pass
// would). Unlike a JITS collection it counts every column, not only the ones
// the workload joins on. The work is setup cost, charged to no query; tables
// db does not hold are skipped; the only error is a recovered morsel panic.
func WorkloadStatistics(db *storage.Database, queries []*qgm.Query, ts int64) (*Archive, error) {
	archive := NewArchive(0, 0)
	var setup costmodel.Meter
	counter := sampling.New(0) // for its evaluation and distinct-value scratch; nothing is drawn
	type exactTable struct {
		rows    *storage.Chunk
		domains map[string]ColumnDomain
	}
	tables := make(map[string]*exactTable)
	for _, q := range queries {
		for _, tc := range AnalyzeQuery(q, 0) {
			x, ok := tables[tc.Table]
			if tbl, found := db.Table(tc.Table); !ok && found {
				snap := tbl.Snapshot()
				n, schema := snap.NumRows(), snap.Schema()
				x = &exactTable{rows: storage.NewDetachedChunk(schema, n)}
				snap.Gather(x.rows, nil, 0, n)
				x.domains = make(map[string]ColumnDomain, schema.NumColumns())
				archive.SetCardinality(tc.Table, int64(n), ts)
				for col := 0; col < schema.NumColumns(); col++ {
					column := schema.Column(col)
					if d := counter.CountColumn(x.rows.Col(col)).D; d > 0 {
						archive.SetColumnNDV(tc.Table, column.Name, int64(d), ts)
					}
					addDomain(x.domains, column, x.rows.Col(col))
				}
				tables[tc.Table] = x
			}
			if x == nil || x.rows.Rows() == 0 {
				continue
			}
			sels, err := counter.EvaluateColumns(x.rows, tc.Groups, &setup, costmodel.Weights{}, 1)
			if err != nil {
				return nil, err
			}
			for gi, g := range tc.Groups {
				archive.Materialize(tc.Table, g, sels[gi], ts, x.domains)
			}
		}
	}
	return archive, nil
}

// SampleDomains is the domain of every column of a row-shaped sample, from
// the collect stage's min/max pass.
func SampleDomains(schema *storage.Schema, sample [][]value.Datum) map[string]ColumnDomain {
	out := make(map[string]ColumnDomain, schema.NumColumns())
	if len(sample) == 0 {
		return out
	}
	chunk := storage.ChunkFromRows(sample)
	for c := 0; c < schema.NumColumns(); c++ {
		addDomain(out, schema.Column(c), chunk.Col(c))
	}
	return out
}

// addDomain records in out the domain (coordinate range + unit) of column
// col, whose values vec holds, from their finite Min and Max
// (sampling.MinMax); a column with no finite value has none.
func addDomain(out map[string]ColumnDomain, col storage.Column, vec *storage.ColumnVec) {
	lo, hi := sampling.MinMax(vec)
	if lo.IsNull() {
		return
	}
	out[col.Name] = ColumnDomain{
		Lo:   lo.Coord(),
		Hi:   hi.Coord(),
		Unit: catalog.UnitFor(col.Kind, lo, hi),
		Kind: col.Kind,
	}
}

// addOrdinal inserts ord into cols, an ascending set of column ordinals.
func addOrdinal(cols []int, ord int) []int {
	if i, found := slices.BinarySearch(cols, ord); !found {
		cols = slices.Insert(cols, i, ord)
	}
	return cols
}
