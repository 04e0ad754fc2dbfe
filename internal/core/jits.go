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
	"repro/internal/metrics"
	"repro/internal/qgm"
	"repro/internal/sampling"
	"repro/internal/storage"
)

// DefaultSampleSize is the number of rows sampled per marked table when
// Config.SampleSize is zero: the paper's configuration.
const DefaultSampleSize = 2000

// Config tunes the JITS framework.
type Config struct {
	// Enabled switches the whole framework; when false, PrepareBudgeted
	// collects nothing and returns the archive-only QueryStats: the optimizer
	// plans from what the archive holds (workload statistics, reactive
	// corrections, a loaded archive) and from general statistics.
	Enabled bool
	// SMax is the sensitivity-analysis threshold of §3.3: 0 collects all
	// possible QSS on every query, 1 never collects. Default 0.5.
	SMax float64
	// SampleSize is the fixed number of rows sampled per marked table
	// (independent of table size, per the paper). Default DefaultSampleSize.
	SampleSize int
	// ForceCollect bypasses the sensitivity analysis: every table with
	// local predicates is sampled and every group materialized — the
	// "sensitivity analysis turned off" mode of the paper's §4.1
	// experiment, equivalent to s_max = 0.
	ForceCollect bool
	// PerGroupSampling emulates the paper's prototype, which "constructed
	// and invoked sampling queries on-the-fly" per statistic: collection
	// cost is charged once per candidate predicate group instead of once
	// per table. Selectivities are identical; only the compilation cost
	// profile changes (it scales with the group count, reproducing the
	// paper's Figure 6 regime where s_max = 0 loses to s_max = 1).
	PerGroupSampling bool
	// Seed makes sampling reproducible.
	Seed int64
}

// withDefaults fills zero-valued knobs. SMax stays as given: an explicit
// zero is meaningful (collect everything).
func (c Config) withDefaults() Config {
	if c.SampleSize <= 0 {
		c.SampleSize = DefaultSampleSize
	}
	return c
}

// DefaultConfig returns the enabled configuration with the paper's
// suggested workload threshold (s_max = 0.5).
func DefaultConfig() Config {
	return Config{
		Enabled:    true,
		SMax:       0.5,
		SampleSize: DefaultSampleSize,
		Seed:       1,
	}
}

// JITS coordinates the framework modules across queries. One instance
// lives inside the engine; its archive and history persist across the
// workload, which is where the amortization the paper reports comes from.
type JITS struct {
	mu  sync.Mutex
	cfg Config
	dop int // sampling workers; <= 1 runs serially
	// archive is the engine's one QSS archive. RestoreArchive replaces it
	// under mu, so a collection works on one archive throughout; a reader
	// outside mu loads it whole.
	archive atomic.Pointer[Archive]
	history *feedback.Store
	cat     *catalog.Catalog
	sampler *sampling.Sampler
	colSets []int // the survey's column sets, reused by every statement
	degrade costmodel.Degradation

	// Collection totals: rows drawn by compile-time sampling and tables
	// sampled.
	sampleRows      atomic.Int64
	tablesCollected atomic.Int64
}

// New builds a JITS coordinator sharing the engine's catalog and feedback
// store, with an archive of the default budget. The sensitivity analysis
// reads the store's StatHistory, and every archive merge is reported to it.
// dop, the engine's degree of parallelism, fans the sampling row fetches and
// predicate-group evaluation out across that many workers; statistics, meter
// charges and therefore plans are identical at any degree, and values <= 1
// run serially.
func New(cfg Config, dop int, history *feedback.Store, cat *catalog.Catalog) *JITS {
	cfg = cfg.withDefaults()
	j := &JITS{
		cfg:     cfg,
		dop:     dop,
		history: history,
		cat:     cat,
		sampler: sampling.New(cfg.Seed),
	}
	j.archive.Store(NewArchive(DefaultSpaceBudgetBuckets, DefaultMemoCapacity))
	return j
}

// Scrape appends the coordinator's jits_* series to set. Every degradation
// cause's series is present from the start, labelled with the cause's own
// name, and reads DegradationCounts, so the two cannot disagree.
func (j *JITS) Scrape(set *metrics.Set) {
	deg := j.DegradationCounts()
	causes := costmodel.DegradeCauses()
	byCause := make([]metrics.Series, len(causes))
	for i, cause := range causes {
		byCause[i] = metrics.Series{LabelValue: cause.String(), Value: float64(deg.Of(cause))}
	}
	set.Counter("jits_sample_rows_total", "Rows drawn by JITS compile-time sampling.", float64(j.sampleRows.Load()))
	set.Counter("jits_tables_collected_total", "Tables successfully sampled by JITS Prepare.", float64(j.tablesCollected.Load()))
	set.CounterBy("jits_degradation_total", "Tables that fell back to catalog statistics, by cause.", "cause", byCause)
}

// DegradationCounts snapshots the cumulative graceful-degradation counters:
// how many tables fell back to catalog statistics, by cause.
func (j *JITS) DegradationCounts() costmodel.DegradationCounts { return j.degrade.Counts() }

// SetSMax adjusts the sensitivity threshold (used by the Figure 6 sweep).
func (j *JITS) SetSMax(smax float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cfg.SMax = smax
}

// Archive exposes the QSS archive: the one every compilation reads, JITS
// collection enabled or not.
func (j *JITS) Archive() *Archive { return j.archive.Load() }

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
	// DegradeCause is set when the sensitivity analysis wanted to collect
	// statistics for this table but collection was abandoned and the
	// optimizer fell back to catalog statistics (it is DegradeNone
	// otherwise); DegradeReason says why in words.
	DegradeCause  costmodel.DegradeCause
	DegradeReason string
	// SampleWall is the wall time of the table's sampling pass, whether or
	// not it succeeded; zero when the table was not sampled. The engine
	// records it as the statement's jits.sample phase.
	SampleWall time.Duration
	// Laps split SampleWall into the pass's four steps (SampleLaps), in
	// order; a step the pass did not reach (it failed first) stays zero.
	Laps SampleLaps
}

// SampleLaps are the wall times of one sampling pass's steps: draw the
// columns the statement reads, evaluate the candidate groups on them, read
// off the column statistics the optimizer uses, and materialize into the
// archive. NDV times that third step whole: the distinct values of each
// column the statement joins on, for its NDV estimate, and the min/max of
// each column a candidate group references, for its domain.
type SampleLaps struct {
	Draw, Eval, NDV, Materialize time.Duration
}

// Degraded reports whether the table fell back to catalog statistics.
func (tr *TableReport) Degraded() bool { return tr.DegradeCause != costmodel.DegradeNone }

// DegradeNote renders a degraded table's "table: reason" note — the line the
// flight record and the wire result carry.
func (tr *TableReport) DegradeNote() string { return tr.Table + ": " + tr.DegradeReason }

// PrepareReport summarizes one PrepareBudgeted call for experiments and logging.
type PrepareReport struct {
	Tables []TableReport // in collection order
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

// FallbackTables lists the tables that fell back to catalog statistics, in
// collection order.
func (r *PrepareReport) FallbackTables() []string {
	var out []string
	for i := range r.Tables {
		if r.Tables[i].Degraded() {
			out = append(out, r.Tables[i].Table)
		}
	}
	return out
}

// DegradedTables counts tables that fell back to catalog statistics.
func (r *PrepareReport) DegradedTables() int { return len(r.FallbackTables()) }

// Degraded reports whether at least one table fell back to catalog
// statistics.
func (r *PrepareReport) Degraded() bool { return r.DegradedTables() > 0 }

// PrepareBudgeted runs the JITS compile-time pipeline for a query
// (collection.go): Algorithm 1 (candidate groups), Algorithm 2/3 (which
// tables to sample), one-pass sampling and group evaluation, Algorithm 4
// (which statistics to materialize), cardinality refresh, and UDI reset. The
// meter is the *compilation* meter — what is charged here is the paper's
// "JITS overhead" — and res the statement's memory reservation (nil disables
// the accounting).
//
// There is no budget: what collection costs is decided by the sensitivity
// analysis over a fixed-size sample (§3), and the name is kept for its
// callers. It degrades instead of failing: a table whose collection is cut
// short is reported in PrepareReport.FallbackTables, and the QueryStats simply
// lacks its fresh entries — the paper's rule that DB2 reverts to traditional
// processing whenever QSS cannot be collected. The only errors are structural
// (unknown table). With the framework disabled it collects nothing and
// returns the archive alone, read at ts, with an empty report.
func (j *JITS) PrepareBudgeted(ctx context.Context, q *qgm.Query, db *storage.Database, ts int64, meter *costmodel.Meter, w costmodel.Weights, res *govern.Reservation) (*QueryStats, *PrepareReport, error) {
	if !j.cfg.Enabled {
		return &QueryStats{archive: j.archive.Load(), ts: ts}, &PrepareReport{}, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	j.mu.Lock()
	defer j.mu.Unlock()

	archive := j.archive.Load()
	c := &collection{
		j: j, ctx: ctx, ts: ts, meter: meter, w: w, res: res,
		qs:   &QueryStats{fresh: map[string]float64{}, cards: map[string]int64{}, archive: archive, ts: ts},
		prep: &PrepareReport{},
		sens: &Sensitivity{History: j.history, Archive: archive, Cat: j.cat, SMax: j.cfg.SMax},
	}
	work, err := c.survey(q, db)
	if err != nil {
		return nil, nil, err
	}
	for _, tw := range work {
		c.decide(tw)
		var deg degradation
		if tw.report.Collected {
			deg = c.collect(tw)
		}
		c.report(tw, deg)
	}
	return c.qs, c.prep, nil
}

// Observation is one post-execution comparison of estimated and actual
// selectivity for a table's local predicate group.
type Observation = feedback.Observation

// Feedback records execution observations into the feedback store at
// logical time 0, for a caller that keeps no clock (bench/staged.go); the
// engine observes through the store with the statement's own time.
func (j *JITS) Feedback(obs []Observation) { j.history.Observe(0, obs) }

// MigrateToCatalog pushes archived 1-D histograms and fresh
// cardinalities into the system catalog (Figure 1's statistics-migration
// module). Returns the number of histograms migrated.
func (j *JITS) MigrateToCatalog(ts int64) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.archive.Load().MigrateToCatalog(j.cat, ts)
}
