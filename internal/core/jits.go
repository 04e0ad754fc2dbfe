package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/feedback"
	"repro/internal/govern"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/qgm"
	"repro/internal/sampling"
	"repro/internal/storage"
	"repro/internal/tracing"
	"repro/internal/value"
)

// Config tunes the JITS framework.
type Config struct {
	// Enabled switches the whole framework; when false, Prepare returns a
	// nil QueryStats and the optimizer runs on general statistics alone.
	Enabled bool
	// SMax is the sensitivity-analysis threshold of §3.3: 0 collects all
	// possible QSS on every query, 1 never collects. Default 0.5.
	SMax float64
	// SampleSize is the fixed number of rows sampled per marked table
	// (independent of table size, per the paper). Default 2000.
	SampleSize int
	// SpaceBudgetBuckets bounds total archive histogram buckets.
	SpaceBudgetBuckets int
	// MemoCapacity bounds the exact-match selectivity memo.
	MemoCapacity int
	// MaxPredsPerTable caps Algorithm 1's group enumeration.
	MaxPredsPerTable int
	// ForceCollect bypasses the sensitivity analysis: every table with
	// local predicates is sampled and every group materialized — the
	// "sensitivity analysis turned off" mode of the paper's §4.1
	// experiment, equivalent to s_max = 0.
	ForceCollect bool
	// Strategy selects the sensitivity-analysis algorithm: the paper's
	// lightweight Algorithms 2–3 (default) or the Chaudhuri–Narasayya
	// magic-number analysis (StrategyCN) as a comparison baseline.
	Strategy Strategy
	// CNEpsilon, CNThreshold and CNMaxRounds tune StrategyCN; zero values
	// select the defaults.
	CNEpsilon   float64
	CNThreshold float64
	CNMaxRounds int
	// PerGroupSampling emulates the paper's prototype, which "constructed
	// and invoked sampling queries on-the-fly" per statistic: collection
	// cost is charged once per candidate predicate group instead of once
	// per table. Selectivities are identical; only the compilation cost
	// profile changes (it scales with the group count, reproducing the
	// paper's Figure 6 regime where s_max = 0 loses to s_max = 1).
	PerGroupSampling bool
	// Seed makes sampling reproducible.
	Seed int64
	// Parallelism fans the sampling row fetches and predicate-group
	// evaluation out across this many workers. Statistics, meter charges
	// and therefore plans are identical at any setting; values <= 1 run
	// serially.
	Parallelism int
	// SampleBudgetRows caps the total rows sampled during one Prepare
	// across all of the statement's tables; 0 means unlimited. When the
	// budget runs low the last table's sample shrinks to the remainder and
	// later tables degrade to catalog statistics — the statement always
	// compiles.
	SampleBudgetRows int
	// SampleBudgetUnits caps the simulated-cost units one Prepare may
	// charge to the compilation meter before further collection degrades
	// to catalog statistics; 0 means unlimited.
	SampleBudgetUnits float64
	// MemBudgetBytes caps the accounted bytes one statement may hold at
	// once (sampling buffers and buffering executor operators alike); 0
	// means unlimited. Sampling shrinks its sample to fit; operators that
	// cannot shrink fail with the typed govern.ErrMemoryBudget. The engine
	// copies this into the governor's per-statement budget.
	MemBudgetBytes int64
}

// withDefaults fills zero-valued knobs. SMax stays as given: an explicit
// zero is meaningful (collect everything).
func (c Config) withDefaults() Config {
	if c.SampleSize <= 0 {
		c.SampleSize = 2000
	}
	if c.MaxPredsPerTable <= 0 {
		c.MaxPredsPerTable = DefaultMaxPredsPerTable
	}
	return c
}

// DefaultConfig returns the enabled configuration with the paper's
// suggested workload threshold (s_max = 0.5).
func DefaultConfig() Config {
	return Config{
		Enabled:            true,
		SMax:               0.5,
		SampleSize:         2000,
		SpaceBudgetBuckets: DefaultSpaceBudgetBuckets,
		MemoCapacity:       DefaultMemoCapacity,
		MaxPredsPerTable:   DefaultMaxPredsPerTable,
		Seed:               1,
	}
}

// JITS coordinates the framework modules across queries. One instance
// lives inside the engine; its archive and history persist across the
// workload, which is where the amortization the paper reports comes from.
type JITS struct {
	mu      sync.Mutex
	cfg     Config
	archive *Archive
	history *feedback.History
	cat     *catalog.Catalog
	sampler *sampling.Sampler
	indexes *index.Set // bound by the engine; used by StrategyCN plan probes
	degrade costmodel.Degradation
	tracer  *tracing.Tracer // bound by the engine; nil-safe when unbound
	breaker *govern.Breaker // bound by the engine; nil-safe when unbound
	merges  MergeObserver   // bound by the engine; nil-safe when unbound
}

// MergeObserver is notified whenever a quantified statistic is merged
// (materialized) into the archive — the accuracy ledger subscribes through
// it. Implementations must be cheap when disabled; the call sits on the
// compilation path.
type MergeObserver interface {
	ObserveMerge(ts int64, table, key string)
}

// New builds a JITS coordinator sharing the engine's catalog and feedback
// history.
func New(cfg Config, history *feedback.History, cat *catalog.Catalog) *JITS {
	cfg = cfg.withDefaults()
	return &JITS{
		cfg:     cfg,
		archive: NewArchive(cfg.SpaceBudgetBuckets, cfg.MemoCapacity),
		history: history,
		cat:     cat,
		sampler: sampling.New(cfg.Seed),
	}
}

// BindTracer attaches the engine's phase tracer; per-table sampling spans
// (tracing.PhaseSample) emit through it. A nil tracer disables the spans.
func (j *JITS) BindTracer(t *tracing.Tracer) { j.tracer = t }

// BindBreaker attaches the governor's sampling circuit breaker. When the
// breaker is open, Prepare skips compile-time sampling entirely (catalog-only
// mode) and counts each skipped table as a breaker degradation. A nil
// breaker (the default) never trips.
func (j *JITS) BindBreaker(b *govern.Breaker) { j.breaker = b }

// BindMergeObserver attaches an archive merge subscriber (the engine's
// accuracy ledger). A nil observer (the default) disables the events.
func (j *JITS) BindMergeObserver(o MergeObserver) { j.merges = o }

// DegradationCounts snapshots the cumulative graceful-degradation counters:
// how many tables fell back to catalog statistics, by cause.
func (j *JITS) DegradationCounts() costmodel.DegradationCounts {
	return j.degrade.Counts()
}

// Config returns the active configuration.
func (j *JITS) Config() Config { return j.cfg }

// SetSMax adjusts the sensitivity threshold (used by the Figure 6 sweep).
func (j *JITS) SetSMax(smax float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cfg.SMax = smax
}

// Archive exposes the QSS archive (read-mostly; examples and experiments
// inspect it).
func (j *JITS) Archive() *Archive { return j.archive }

// QueryStats carries the statistics available to one query's optimization:
// selectivities freshly collected during this compilation, plus the shared
// archive. It implements optimizer.StatsSource.
type QueryStats struct {
	fresh   map[string]float64
	cards   map[string]int64
	archive *Archive
	ts      int64

	// Per-query archive outcome counters (atomic so introspection can read
	// them regardless of which goroutine consults the stats source). Fresh
	// selectivities count as neither — they never touched the archive.
	archiveHits   atomic.Int64
	archiveMisses atomic.Int64
}

// GroupSelectivity implements optimizer.StatsSource.
func (qs *QueryStats) GroupSelectivity(table string, preds []qgm.Predicate) (float64, string, bool) {
	if len(preds) == 0 {
		return 1, "", false
	}
	key := qgm.PredicateGroupKey(table, preds)
	if sel, ok := qs.fresh[key]; ok {
		return sel, qgm.ColumnGroupKey(table, qgm.GroupColumns(preds)), true
	}
	sel, statKey, ok := qs.archive.GroupSelectivity(table, preds, qs.ts)
	if ok {
		qs.archiveHits.Add(1)
	} else {
		qs.archiveMisses.Add(1)
	}
	return sel, statKey, ok
}

// ArchiveHits reports how many of this query's selectivity lookups were
// answered by the shared archive.
func (qs *QueryStats) ArchiveHits() int { return int(qs.archiveHits.Load()) }

// ArchiveMisses reports how many of this query's selectivity lookups the
// archive could not answer (the optimizer fell back to catalog statistics).
func (qs *QueryStats) ArchiveMisses() int { return int(qs.archiveMisses.Load()) }

// Cardinality implements optimizer.StatsSource.
func (qs *QueryStats) Cardinality(table string) (int64, bool) {
	if card, ok := qs.cards[table]; ok {
		return card, true
	}
	return qs.archive.Cardinality(table)
}

// ColumnNDV implements optimizer.StatsSource: distinct-value estimates
// derived from collection samples, current or archived.
func (qs *QueryStats) ColumnNDV(table, column string) (int64, bool) {
	return qs.archive.ColumnNDV(table, column)
}

// FreshGroups reports how many predicate-group selectivities this query's
// compilation collected.
func (qs *QueryStats) FreshGroups() int { return len(qs.fresh) }

// TableReport records the sensitivity decision and collection work for one
// table of one prepared query.
type TableReport struct {
	Table              string
	Alias              string
	Collected          bool
	Scores             Scores
	SampleRows         int
	GroupsEvaluated    int
	GroupsMaterialized int
	// Degraded is set when the sensitivity analysis wanted to collect
	// statistics for this table but collection was abandoned (budget
	// exhaustion, sampling error, cancellation, or a recovered panic) and
	// the optimizer fell back to catalog statistics. DegradeReason says
	// why.
	Degraded      bool
	DegradeReason string
}

// PrepareReport summarizes one Prepare call for experiments and logging.
type PrepareReport struct {
	Tables []TableReport
	// Degraded is set when at least one table fell back to catalog
	// statistics; FallbackTables lists them in collection order.
	Degraded       bool
	FallbackTables []string
}

// CollectedTables counts tables that were sampled.
func (r *PrepareReport) CollectedTables() int {
	n := 0
	for _, t := range r.Tables {
		if t.Collected {
			n++
		}
	}
	return n
}

// DegradedTables counts tables that fell back to catalog statistics.
func (r *PrepareReport) DegradedTables() int { return len(r.FallbackTables) }

// Prepare runs the JITS compile-time pipeline for a query: Algorithm 1
// (candidate groups), Algorithm 2/3 (which tables to sample), one-pass
// sampling and group evaluation, Algorithm 4 (which statistics to
// materialize into the archive), cardinality refresh, and UDI reset. The
// meter is the *compilation* meter: everything charged here is the paper's
// "JITS overhead" that shows up in compilation time.
//
// Prepare degrades instead of failing: if a table's collection is cut short
// by the sampling budgets (Config.SampleBudgetRows/SampleBudgetUnits), a
// sampling error, a recovered panic, or ctx cancellation, that table is
// reported in PrepareReport.FallbackTables, its UDI counters are left
// intact (so the next query re-considers it), and the returned QueryStats
// simply lacks its fresh entries — the optimizer transparently falls back
// to archived/catalog statistics, mirroring the paper's rule that DB2
// reverts to traditional processing whenever QSS cannot be collected. The
// only errors Prepare returns are structural (unknown table).
func (j *JITS) Prepare(ctx context.Context, q *qgm.Query, db *storage.Database, ts int64, meter *costmodel.Meter, w costmodel.Weights) (*QueryStats, *PrepareReport, error) {
	return j.PrepareBudgeted(ctx, q, db, ts, meter, w, nil)
}

// PrepareBudgeted is Prepare with a per-statement memory reservation:
// sampling buffers are charged against res (shrinking the sample to fit
// where possible, degrading to catalog statistics where not) and the
// governor's circuit breaker — when bound and open — short-circuits all
// collection to catalog-only mode. A nil res disables memory accounting.
func (j *JITS) PrepareBudgeted(ctx context.Context, q *qgm.Query, db *storage.Database, ts int64, meter *costmodel.Meter, w costmodel.Weights, res *govern.Reservation) (*QueryStats, *PrepareReport, error) {
	if !j.cfg.Enabled {
		return nil, &PrepareReport{}, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	j.mu.Lock()
	defer j.mu.Unlock()

	qs := &QueryStats{
		fresh:   make(map[string]float64),
		cards:   make(map[string]int64),
		archive: j.archive,
		ts:      ts,
	}
	report := &PrepareReport{}
	sens := &Sensitivity{History: j.history, Archive: j.archive, Cat: j.cat, SMax: j.cfg.SMax}

	// Table statistics (row counts) are needed for *every* table involved
	// in the query (§3.2), not only those with local predicates: refresh
	// them from storage metadata — a cached catalog read, free at the cost
	// model's granularity.
	for _, blk := range q.Blocks {
		for _, ti := range blk.Tables {
			tbl, ok := db.Table(ti.Table)
			if !ok {
				return nil, nil, fmt.Errorf("jits: table %q not in database", ti.Table)
			}
			card := int64(tbl.RowCount())
			qs.cards[ti.Table] = card
			j.archive.SetCardinality(ti.Table, card, ts)
		}
	}

	// The CN baseline decides the collection set up front by probing plans
	// (after cardinalities are refreshed, which its costing consumes).
	var cnSet map[string]bool
	if j.cfg.Strategy == StrategyCN && !j.cfg.ForceCollect {
		cnSet = make(map[string]bool)
		for _, blk := range q.Blocks {
			for _, name := range j.cnDecide(blk, qs, meter, w) {
				cnSet[name] = true
			}
		}
	}

	candidates := AnalyzeQuery(q, j.cfg.MaxPredsPerTable)

	// Instances of the same base table share one sample: merge their
	// candidate groups (deduplicated by canonical key) per table name.
	type tableWork struct {
		table   string
		aliases []string
		groups  [][]qgm.Predicate
		keys    map[string]bool
	}
	byTable := make(map[string]*tableWork)
	var order []string
	for _, tc := range candidates {
		tw, ok := byTable[tc.Table]
		if !ok {
			tw = &tableWork{table: tc.Table, keys: make(map[string]bool)}
			byTable[tc.Table] = tw
			order = append(order, tc.Table)
		}
		tw.aliases = append(tw.aliases, tc.Alias)
		for _, g := range tc.Groups {
			key := qgm.PredicateGroupKey(tc.Table, g)
			if !tw.keys[key] {
				tw.keys[key] = true
				tw.groups = append(tw.groups, g)
			}
		}
	}
	sort.Strings(order)

	// Budget accounting for this statement's collection: rows drawn and
	// simulated-cost units charged since Prepare began.
	startUnits := meter.Units()
	rowsUsed := 0

	degrade := func(tr *TableReport, reason string, record func(), cause *metrics.Counter) {
		tr.Collected = false
		tr.Degraded = true
		tr.DegradeReason = reason
		report.Degraded = true
		report.FallbackTables = append(report.FallbackTables, tr.Table)
		record()
		cause.Inc()
	}

	// The sampling breaker is consulted once per statement, lazily at the
	// first table the sensitivity analysis wants to sample: under sustained
	// overload the whole statement compiles catalog-only rather than
	// half-sampled, and statements that would not have sampled anyway do not
	// consume half-open probe permits.
	breakerChecked := false
	breakerAllows := true

	for _, name := range order {
		tw := byTable[name]
		tbl, ok := db.Table(name)
		if !ok {
			return nil, nil, fmt.Errorf("jits: table %q not in database", name)
		}
		udi := tbl.UDICounter().Total()
		act := TableActivity{Table: name, Cardinality: int64(tbl.RowCount()), UDI: udi}

		collect := j.cfg.ForceCollect
		var scores Scores
		if !collect {
			if cnSet != nil {
				collect = cnSet[name]
			} else {
				collect, scores = sens.ShouldCollectStats(act, tw.groups)
			}
		}
		tr := TableReport{
			Table: name, Alias: tw.aliases[0],
			Collected: collect, Scores: scores,
			GroupsEvaluated: len(tw.groups),
		}
		if collect && !breakerChecked {
			breakerChecked = true
			breakerAllows = j.breaker.Allow()
		}
		if collect {
			switch {
			case ctx.Err() != nil:
				degrade(&tr, fmt.Sprintf("cancelled: %v", ctx.Err()), j.degrade.RecordCancellation, mDegradeCancelled)
			case !breakerAllows:
				degrade(&tr, "sampling circuit breaker open (catalog-only mode)", j.degrade.RecordBreakerOpen, mDegradeBreaker)
			case j.cfg.SampleBudgetUnits > 0 && meter.Units()-startUnits >= j.cfg.SampleBudgetUnits:
				degrade(&tr, "cost budget exhausted", j.degrade.RecordBudgetExhausted, mDegradeBudget)
			case j.cfg.SampleBudgetRows > 0 && rowsUsed >= j.cfg.SampleBudgetRows:
				degrade(&tr, "sample-row budget exhausted", j.degrade.RecordBudgetExhausted, mDegradeBudget)
			default:
				size := j.cfg.SampleSize
				if j.cfg.SampleBudgetRows > 0 && rowsUsed+size > j.cfg.SampleBudgetRows {
					size = j.cfg.SampleBudgetRows - rowsUsed
				}
				span := j.tracer.Start(ts, tracing.PhaseSample)
				sampleStart := time.Now()
				err := j.collectTable(ctx, tbl, name, tw.groups, size, qs, &tr, sens, ts, meter, w, res, span)
				// The breaker watches real sampling wall time, success or
				// not: a probe that errors slowly is still a slow probe.
				j.breaker.RecordSampling(time.Since(sampleStart))
				span.Attr("table", name).Attr("rows", tr.SampleRows).Attr("groups", len(tw.groups)).End()
				if err != nil {
					switch {
					case ctx.Err() != nil:
						degrade(&tr, fmt.Sprintf("cancelled: %v", err), j.degrade.RecordCancellation, mDegradeCancelled)
					case errors.Is(err, govern.ErrMemoryBudget):
						degrade(&tr, fmt.Sprintf("memory budget: %v", err), j.degrade.RecordMemoryBudget, mDegradeMemory)
					case isRecoveredPanic(err):
						degrade(&tr, err.Error(), j.degrade.RecordPanic, mDegradePanic)
					default:
						degrade(&tr, fmt.Sprintf("sampling error: %v", err), j.degrade.RecordSamplingError, mDegradeSampling)
					}
				} else {
					rowsUsed += tr.SampleRows
					mSampleRows.Add(float64(tr.SampleRows))
					mTablesCollected.Inc()
					// Collection succeeded: the UDI activity the sample
					// reflects has been absorbed into fresh statistics.
					tbl.ResetUDI()
				}
			}
		}
		report.Tables = append(report.Tables, tr)
	}
	return qs, report, nil
}

// panicError marks a collection panic recovered inside collectTable.
type panicError struct{ val any }

func (p *panicError) Error() string { return fmt.Sprintf("recovered panic: %v", p.val) }

func isRecoveredPanic(err error) bool {
	var pe *panicError
	return errors.As(err, &pe)
}

// minSampleRows is the smallest sample the memory shrink-to-fit loop will
// offer before giving up with a typed budget error: below this, estimates
// are noise and catalog statistics are the better fallback.
const minSampleRows = 64

// collectTable samples one table and folds the observed selectivities, NDVs
// and materialized histograms into qs, tr and the archive. Any panic in the
// sampling/evaluation machinery (including injected worker panics) is
// recovered into an error so the caller can degrade instead of crashing the
// statement.
//
// When res is non-nil, the sample buffer is reserved before sampling: the
// sample shrinks by halving (down to minSampleRows) until the reservation
// fits — the sampling analogue of the Degraded path — and a sample that
// cannot fit at all returns a wrapped govern.ErrMemoryBudget. The
// reservation is returned when the sample is released: QSS live in the
// archive, the sample itself is transient.
func (j *JITS) collectTable(ctx context.Context, tbl *storage.Table, name string, groups [][]qgm.Predicate, size int, qs *QueryStats, tr *TableReport, sens *Sensitivity, ts int64, meter *costmodel.Meter, w costmodel.Weights, res *govern.Reservation, span *tracing.Span) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &panicError{val: p}
		}
	}()

	var reserved int64
	if res != nil {
		rowBytes := govern.EstimateRowBytes(tbl.Schema().NumColumns())
		shrunk := false
		for {
			// Small tables are copied whole regardless of the nominal sample
			// size — reserve for what the sampler will really materialize.
			rows := sampling.EffectiveSampleRows(tbl.RowCount(), size)
			want := int64(rows) * rowBytes
			if growErr := res.Grow(want); growErr == nil {
				reserved = want
				break
			} else if size/2 < minSampleRows {
				return fmt.Errorf("sample of %d rows does not fit reservation: %w", size, growErr)
			}
			size /= 2
			shrunk = true
		}
		if shrunk {
			mSampleMemShrinks.Inc()
		}
		defer res.Shrink(reserved)
	}

	sample, err := j.sampler.SampleColumns(ctx, tbl, size, meter, w, j.cfg.Parallelism)
	if err != nil {
		return err
	}
	rows := sample.Rows()
	span.Lap("draw_us")
	if j.cfg.PerGroupSampling && len(groups) > 1 {
		// Prototype-faithful costing: every additional candidate
		// group pays its own sampling query.
		meter.Add(w.SampleRow * float64(rows) * float64(len(groups)-1))
	}
	sels := sampling.EvaluateColumns(sample, groups, meter, w, j.cfg.Parallelism)
	floor := sampling.SelectivityFloor(rows)
	span.Lap("eval_us")

	// Only the columns some candidate group references are ever looked up.
	schema := tbl.Schema()
	domains := columnDomains(schema, sample, qgm.GroupColumns(slices.Concat(groups...)))
	span.Lap("domains_us")

	card := int64(tbl.RowCount())
	j.archive.SetCardinality(name, card, ts)
	qs.cards[name] = card

	// Distinct-value estimates per column from the same sample
	// (Duj1), refreshed into the archive for join estimation.
	for c := 0; c < schema.NumColumns(); c++ {
		if ndv := j.sampler.EstimateNDV(sample.Col(c), int(card)); ndv > 0 {
			j.archive.SetColumnNDV(name, schema.Column(c).Name, ndv, ts)
		}
	}
	span.Lap("ndv_us")

	for gi, g := range groups {
		sel := sels[gi]
		if sel <= 0 {
			sel = floor
		}
		qs.fresh[qgm.PredicateGroupKey(name, g)] = sel

		materialize := j.cfg.ForceCollect || sens.ShouldMaterialize(name, g)
		if materialize {
			touched := j.archive.Materialize(name, g, sel, ts, domains)
			meter.Add(w.HistUpdate * float64(touched))
			tr.GroupsMaterialized++
			if j.merges != nil {
				j.merges.ObserveMerge(ts, name, qgm.ColumnGroupKey(name, qgm.GroupColumns(g)))
			}
		}
	}
	tr.SampleRows = rows
	span.Lap("materialize_us")
	return nil
}

// SampleDomains is columnDomains over row-shaped data, for every column of
// the schema.
func SampleDomains(schema *storage.Schema, sample [][]value.Datum) map[string]ColumnDomain {
	return columnDomains(schema, storage.ChunkFromRows(sample), nil)
}

// columnDomains derives the domains (coordinate range + unit) of the named
// columns — of every schema column when cols is nil — from a columnar
// sample, for archive grid creation. A column with no observed value has no
// domain: it is not gridable.
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

// Observation is one post-execution comparison of estimated and actual
// selectivity for a table's local predicate group — what LEO's monitoring
// delivers.
type Observation struct {
	Table     string
	ColGrp    string
	StatList  []string
	EstSel    float64
	ActualSel float64
	BaseCard  int64
}

// Feedback records execution observations into the StatHistory. It runs
// regardless of whether JITS collection is enabled — the feedback loop is
// the engine's (LEO's), and JITS merely consumes it.
func (j *JITS) Feedback(obs []Observation) {
	for _, o := range obs {
		if o.ColGrp == "" {
			continue
		}
		ef := feedback.ErrorFactor(o.EstSel, o.ActualSel, o.BaseCard)
		mErrorFactor.Observe(ef)
		j.history.Record(o.Table, o.ColGrp, o.StatList, ef)
	}
}

// MigrateToCatalog periodically pushes archived 1-D histograms and fresh
// cardinalities into the system catalog (Figure 1's statistics-migration
// module). Returns the number of histograms migrated.
func (j *JITS) MigrateToCatalog(ts int64) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.archive.MigrateToCatalog(j.cat, ts)
}
