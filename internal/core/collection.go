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
	"repro/internal/tracing"
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

	// admit's accounts: the meter reading collection started at, the rows
	// drawn since, and the breaker's one verdict.
	startUnits   float64
	rowsUsed     int
	breakerAsked bool
	breakerOpen  bool
}

// tableWork is one base table's share of the statement.
type tableWork struct {
	tbl    *storage.Table
	groups [][]qgm.Predicate // candidate groups of every instance, deduplicated
	report TableReport
}

// degradation is the one event that ends a table's collection without
// statistics; the zero value means the table did not degrade.
type degradation struct {
	cause  costmodel.DegradeCause
	reason string
}

// survey refreshes cardinalities, lets the CN baseline probe plans, and
// returns the statement's tables that have local predicates, in name order,
// each with the candidate groups of all its instances (they share one sample).
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

// minSampleRows is the smallest sample the memory shrink-to-fit loop offers:
// below it estimates are noise and catalog statistics the better fallback.
const minSampleRows = 64

// admit answers whether a marked table may be sampled now: the rows the
// sampler may draw and the bytes reserved for them (returned when the sample
// is released), or the degradation that refuses it — in order cancellation,
// the breaker, the cost budget, the row budget (which also truncates the last
// admitted sample to what is left), and the memory reservation, against which
// the sample halves until it fits. The breaker is asked once per statement,
// lazily: under overload a statement compiles catalog-only rather than
// half-sampled, and one that would not sample consumes no half-open permit.
func (c *collection) admit(tw *tableWork) (size int, reserved int64, deg degradation) {
	cfg := &c.j.cfg
	if !c.breakerAsked {
		c.breakerAsked = true
		c.breakerOpen = !c.j.breaker.Allow()
	}
	switch {
	case c.ctx.Err() != nil:
		return 0, 0, degradation{costmodel.DegradeCancelled, fmt.Sprintf("cancelled: %v", c.ctx.Err())}
	case c.breakerOpen:
		return 0, 0, degradation{costmodel.DegradeBreakerOpen, "sampling circuit breaker open (catalog-only mode)"}
	case cfg.SampleBudgetUnits > 0 && c.meter.Units()-c.startUnits >= cfg.SampleBudgetUnits:
		return 0, 0, degradation{costmodel.DegradeBudgetExhausted, "cost budget exhausted"}
	case cfg.SampleBudgetRows > 0 && c.rowsUsed >= cfg.SampleBudgetRows:
		return 0, 0, degradation{costmodel.DegradeBudgetExhausted, "sample-row budget exhausted"}
	}
	size = cfg.SampleSize
	if cfg.SampleBudgetRows > 0 && c.rowsUsed+size > cfg.SampleBudgetRows {
		size = cfg.SampleBudgetRows - c.rowsUsed
	}

	rowBytes := govern.EstimateRowBytes(tw.tbl.Schema().NumColumns())
	for shrunk := false; ; shrunk = true {
		// Reserve for what the sampler will really materialize: small
		// tables are copied whole whatever the nominal size.
		want := int64(sampling.EffectiveSampleRows(tw.tbl.RowCount(), size)) * rowBytes
		err := c.res.Grow(want)
		if err == nil {
			if shrunk {
				mSampleMemShrinks.Inc()
			}
			return size, want, degradation{}
		}
		if size/2 < minSampleRows {
			// Report the pass the breaker allowed back as an instant one,
			// so a half-open probe permit is not left outstanding.
			c.j.breaker.RecordSampling(0)
			return 0, 0, degradation{costmodel.DegradeMemoryBudget,
				fmt.Sprintf("memory budget: sample of %d rows does not fit reservation: %v", size, err)}
		}
		size /= 2
	}
}

// collect samples the admitted table under a jits.sample span and releases
// the reservation (QSS live in the archive, the sample is transient); a
// failed pass comes back as the degradation it amounts to.
func (c *collection) collect(tw *tableWork, size int, reserved int64) degradation {
	tr := &tw.report
	span := c.j.tracer.Start(c.ts, tracing.PhaseSample)
	start := time.Now()
	err := c.sample(tw, size, span)
	c.res.Shrink(reserved)
	tr.SampleWall = time.Since(start)
	// Success or not: a probe that errors slowly is still a slow probe.
	c.j.breaker.RecordSampling(tr.SampleWall)
	if span != nil {
		span.Attr("table", tr.Table).Attr("rows", tr.SampleRows).Attr("groups", len(tw.groups))
	}
	span.End()

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

// sample is collect's body — draw → evaluate → domains → NDV → materialize,
// one lap of the span each. A panic anywhere in it is an error (the morsel
// runner hands back its workers', this recovers the rest), so the table
// degrades instead of crashing the statement.
func (c *collection) sample(tw *tableWork, size int, span *tracing.Span) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &morsel.PanicError{Val: p}
		}
	}()
	j, cfg, tr, groups := c.j, &c.j.cfg, &tw.report, tw.groups
	name, schema := tr.Table, tw.tbl.Schema()

	sample, err := j.sampler.SampleColumns(c.ctx, tw.tbl, size, c.meter, c.w, cfg.Parallelism)
	if err != nil {
		return err
	}
	rows := sample.Rows()
	span.Lap("draw_us")

	if cfg.PerGroupSampling && len(groups) > 1 {
		// Prototype-faithful costing: each further group pays its own query.
		c.meter.Add(c.w.SampleRow * float64(rows) * float64(len(groups)-1))
	}
	sels, err := sampling.EvaluateColumns(sample, groups, c.meter, c.w, cfg.Parallelism)
	if err != nil {
		return err
	}
	floor := sampling.SelectivityFloor(rows)
	span.Lap("eval_us")

	// Only the columns some candidate group references are ever looked up.
	domains := columnDomains(schema, sample, qgm.GroupColumns(slices.Concat(groups...)))
	span.Lap("domains_us")

	card := int64(tw.tbl.RowCount())
	j.archive.SetCardinality(name, card, c.ts)
	c.qs.cards[name] = card

	// Per-column distinct-value estimates (Duj1), for join estimation.
	for col := 0; col < schema.NumColumns(); col++ {
		if ndv := j.sampler.EstimateNDV(sample.Col(col), int(card)); ndv > 0 {
			j.archive.SetColumnNDV(name, schema.Column(col).Name, ndv, c.ts)
		}
	}
	span.Lap("ndv_us")

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
			if j.merges != nil {
				j.merges.ObserveMerge(c.ts, name, qgm.ColumnGroupKey(name, qgm.GroupColumns(g)))
			}
		}
	}
	tr.SampleRows = rows
	span.Lap("materialize_us")
	return nil
}

// report closes the table's TableReport. A degradation is counted here and
// nowhere else: its cause indexes the always-on counts, labels the metric and
// stamps the report; UDI stays, so the next statement reconsiders the table.
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
		mDegradation.With(deg.cause.String()).Inc()
	case tr.Collected:
		c.rowsUsed += tr.SampleRows
		mSampleRows.Add(float64(tr.SampleRows))
		mTablesCollected.Inc()
		tw.tbl.ResetUDI()
	}
	c.prep.Tables = append(c.prep.Tables, *tr)
}

// WorkloadStatistics builds the paper's "workload statistics" baseline with
// the collect stage's kernels over whole tables: a table's cardinality, exact
// NDVs and domains once, then every candidate group of every query, in
// workload order, materialized at its exact selectivity (a recurring group is
// merged again, as a per-query pass would). The work is setup cost, charged to
// no query; tables db does not hold are skipped; the only error is a
// recovered morsel panic.
func WorkloadStatistics(db *storage.Database, queries []*qgm.Query, ts int64) (*Archive, error) {
	archive := NewArchive(0, 0)
	var setup costmodel.Meter
	counter := sampling.New(0) // for its distinct-value scratch; nothing is drawn
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
				x.domains = columnDomains(schema, x.rows, nil)
				archive.SetCardinality(tc.Table, int64(n), ts)
				for col := 0; col < schema.NumColumns(); col++ {
					if ndv := counter.ExactNDV(x.rows.Col(col)); ndv > 0 {
						archive.SetColumnNDV(tc.Table, schema.Column(col).Name, ndv, ts)
					}
				}
				tables[tc.Table] = x
			}
			if x == nil || x.rows.Rows() == 0 {
				continue
			}
			sels, err := sampling.EvaluateColumns(x.rows, tc.Groups, &setup, costmodel.Weights{}, 1)
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

// SampleDomains is columnDomains over row-shaped data, for every column of
// the schema.
func SampleDomains(schema *storage.Schema, sample [][]value.Datum) map[string]ColumnDomain {
	return columnDomains(schema, storage.ChunkFromRows(sample), nil)
}

// columnDomains derives the domains (coordinate range + unit) of the named
// columns — of every schema column when cols is nil — from a columnar sample,
// for archive grid creation. A column with no observed value has none.
func columnDomains(schema *storage.Schema, sample *storage.Chunk, cols []string) map[string]ColumnDomain {
	out := make(map[string]ColumnDomain, len(cols))
	if sample.Rows() == 0 {
		return out
	}
	for c := 0; c < schema.NumColumns(); c++ {
		col := schema.Column(c)
		if cols != nil && !slices.Contains(cols, col.Name) {
			continue
		}
		min, max := sample.Col(c).MinMax()
		if min.IsNull() {
			continue
		}
		out[col.Name] = ColumnDomain{
			Lo:   min.Coord(),
			Hi:   max.Coord(),
			Unit: catalog.UnitFor(col.Kind, min, max),
			Kind: col.Kind,
		}
	}
	return out
}
