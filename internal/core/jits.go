package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/feedback"
	"repro/internal/govern"
	"repro/internal/index"
	"repro/internal/qgm"
	"repro/internal/sampling"
	"repro/internal/storage"
	"repro/internal/tracing"
)

// Config tunes the JITS framework.
type Config struct {
	// Enabled switches the whole framework; when false, PrepareBudgeted returns a
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
	// ForceCollect bypasses the sensitivity analysis: every table with
	// local predicates is sampled and every group materialized — the
	// "sensitivity analysis turned off" mode of the paper's §4.1
	// experiment, equivalent to s_max = 0.
	ForceCollect bool
	// Strategy selects the sensitivity-analysis algorithm: the paper's
	// lightweight Algorithms 2–3 (default) or the Chaudhuri–Narasayya
	// magic-number analysis (StrategyCN) as a comparison baseline.
	Strategy Strategy
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
	// serially. The engine fills it from its Config.Parallelism; a
	// statement's ExecOptions.Parallelism does not reach it.
	Parallelism int
	// SampleBudgetRows caps the total rows sampled during one PrepareBudgeted
	// across all of the statement's tables; 0 means unlimited. When the
	// budget runs low the last table's sample shrinks to the remainder and
	// later tables degrade to catalog statistics — the statement always
	// compiles.
	SampleBudgetRows int
	// SampleBudgetUnits caps the simulated-cost units one PrepareBudgeted may
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
		archive: NewArchive(cfg.SpaceBudgetBuckets, DefaultMemoCapacity),
		history: history,
		cat:     cat,
		sampler: sampling.New(cfg.Seed),
	}
}

// BindTracer attaches the engine's phase tracer; per-table sampling spans
// (tracing.PhaseSample) emit through it. A nil tracer disables the spans.
func (j *JITS) BindTracer(t *tracing.Tracer) { j.tracer = t }

// BindBreaker attaches the governor's sampling circuit breaker. While it is
// open, PrepareBudgeted skips compile-time sampling (catalog-only mode) and
// counts each skipped table as a breaker degradation. A nil breaker (the
// default) never trips.
func (j *JITS) BindBreaker(b *govern.Breaker) { j.breaker = b }

// BindMergeObserver attaches an archive merge subscriber (the engine's
// accuracy ledger). A nil observer (the default) disables the events.
func (j *JITS) BindMergeObserver(o MergeObserver) { j.merges = o }

// DegradationCounts snapshots the cumulative graceful-degradation counters:
// how many tables fell back to catalog statistics, by cause.
func (j *JITS) DegradationCounts() costmodel.DegradationCounts { return j.degrade.Counts() }

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

// ArchiveStats is the statistics source of a query that collects nothing
// itself: the archive alone, read at logical time ts (the workload-statistics
// and reactive baselines).
func ArchiveStats(archive *Archive, ts int64) *QueryStats {
	return &QueryStats{archive: archive, ts: ts}
}

// GroupSelectivity implements optimizer.StatsSource.
func (qs *QueryStats) GroupSelectivity(table string, preds []qgm.Predicate) (float64, qgm.StatName, bool) {
	if len(preds) == 0 {
		return 1, qgm.StatName{}, false
	}
	if len(qs.fresh) > 0 { // else spare rendering the group's name twice
		if sel, ok := qs.fresh[qgm.PredicateGroupKey(table, preds)]; ok {
			return sel, qgm.ColumnGroup(table, qgm.GroupColumns(preds)), true
		}
	}
	sel, stat, ok := qs.archive.GroupSelectivity(table, preds, qs.ts)
	if ok {
		qs.archiveHits.Add(1)
	} else {
		qs.archiveMisses.Add(1)
	}
	return sel, stat, ok
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
	// statistics for this table but collection was refused or abandoned and
	// the optimizer fell back to catalog statistics. DegradeCause classifies
	// why (it is DegradeNone otherwise), DegradeReason says it in words.
	Degraded      bool
	DegradeCause  costmodel.DegradeCause
	DegradeReason string
	// SampleWall is the wall time of the table's sampling pass, whether or
	// not it succeeded; zero when the table was not sampled. The engine
	// records it as the statement's jits.sample phase.
	SampleWall time.Duration
}

// DegradeNote renders a degraded table's "table: reason" note — the line the
// flight record, the trace and the wire result carry.
func (tr *TableReport) DegradeNote() string { return tr.Table + ": " + tr.DegradeReason }

// PrepareReport summarizes one PrepareBudgeted call for experiments and logging.
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

// PrepareBudgeted runs the JITS compile-time pipeline for a query
// (collection.go): Algorithm 1 (candidate groups), Algorithm 2/3 (which
// tables to sample), one-pass sampling and group evaluation, Algorithm 4
// (which statistics to materialize), cardinality refresh, and UDI reset. The
// meter is the *compilation* meter — what is charged here is the paper's
// "JITS overhead" — and res the statement's memory reservation (nil disables
// the accounting).
//
// It degrades instead of failing: a table whose collection is refused or cut
// short is reported in PrepareReport.FallbackTables, and the QueryStats simply
// lacks its fresh entries — the paper's rule that DB2 reverts to traditional
// processing whenever QSS cannot be collected. The only errors are structural
// (unknown table).
func (j *JITS) PrepareBudgeted(ctx context.Context, q *qgm.Query, db *storage.Database, ts int64, meter *costmodel.Meter, w costmodel.Weights, res *govern.Reservation) (*QueryStats, *PrepareReport, error) {
	if !j.cfg.Enabled {
		return nil, &PrepareReport{}, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	j.mu.Lock()
	defer j.mu.Unlock()

	c := &collection{
		j: j, ctx: ctx, ts: ts, meter: meter, w: w, res: res,
		qs:   &QueryStats{fresh: map[string]float64{}, cards: map[string]int64{}, archive: j.archive, ts: ts},
		prep: &PrepareReport{},
		sens: &Sensitivity{History: j.history, Archive: j.archive, Cat: j.cat, SMax: j.cfg.SMax},
	}
	work, err := c.survey(q, db)
	if err != nil {
		return nil, nil, err
	}
	for _, tw := range work {
		c.decide(tw)
		var deg degradation
		if tw.report.Collected {
			size, reserved, refused := c.admit(tw)
			if deg = refused; deg.cause == costmodel.DegradeNone {
				deg = c.collect(tw, size, reserved)
			}
		}
		c.report(tw, deg)
	}
	return c.qs, c.prep, nil
}

// Observation is one post-execution comparison of estimated and actual
// selectivity for a table's local predicate group — what LEO's monitoring
// delivers.
type Observation struct {
	Table     string
	ColGrp    qgm.StatName
	StatList  []qgm.StatName
	EstSel    float64
	ActualSel float64
	BaseCard  int64
}

// Feedback records execution observations into the StatHistory. It runs
// regardless of whether JITS collection is enabled — the feedback loop is
// the engine's (LEO's), and JITS merely consumes it.
func (j *JITS) Feedback(obs []Observation) {
	for _, o := range obs {
		if o.ColGrp.IsZero() {
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
