// Package engine is the public facade of the database: it wires the SQL
// front end, the Query Graph Model, the JITS framework, the cost-based
// optimizer, the executor and the feedback loop into a single Exec call —
// the equivalent of the paper's modified DB2 engine.
//
// Every statement is one statement value threaded through one pipeline of
// explicit stages (statement.go; DESIGN.md §21):
//
//	reserve     the per-statement memory reservation
//	probe cache normalized SQL + archive epoch → compiled plan, on a hit
//	parse       SQL text → AST                        (skipped on a hit)
//	begin       one logical-clock tick (the qid), flight record opened
//	dispatch    by statement kind; for a SELECT:
//	  compile   rewrite (QGM) → JITS Prepare (sensitivity analysis +
//	            sampling) → optimize                  (skipped on a hit)
//	  execute   metered physical operators, re-planning at checkpoints
//	  observe   actual vs. estimated selectivities → feedback store,
//	            flight record, corrections
//	finish      flight record captured, stamped and committed; instruments
//
// A plan-cache hit, EXPLAIN and EXPLAIN ANALYZE are this same pipeline
// skipping a stage, stopping early or rendering differently — never a second
// code path. Compilation work (optimization and JITS statistics collection)
// and execution work accrue on separate meters, so results report the same
// compilation / execution / total split as the paper's Table 3.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/executor"
	"repro/internal/feedback"
	"repro/internal/flightrec"
	"repro/internal/govern"
	"repro/internal/index"
	"repro/internal/morsel"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Config configures a new engine instance.
type Config struct {
	// JITS configures the just-in-time statistics framework; the zero
	// value disables it (traditional processing).
	JITS core.Config
	// ReactiveCorrections enables a LEO-style *reactive* baseline (the
	// related-work family of the paper's §5.1): after each query, observed
	// actual selectivities are stored in the engine's archive as exact-match
	// corrections that benefit future queries with the same predicate
	// groups. The current query still suffers from the wrong estimate — the
	// paper's critique. Only armed when JITS collection is disabled.
	ReactiveCorrections bool
	// Trace, when non-nil, receives every statement's flight record as one
	// JSON line when the statement finishes — the record /debug/queries
	// serves: phase wall times, the JITS decisions with their s1/s2 scores
	// and sample laps, the plan with per-operator actuals, and the feedback
	// observed. It is a sink of the flight recorder independent of
	// FlightRecorderCapacity. Each line is one Write under the recorder's
	// mutex, so the writer may be shared by concurrent statements without
	// external locking.
	Trace io.Writer
	// Parallelism is the degree of intra-query parallelism for SELECT
	// execution and for JITS sample evaluation. Values <= 1 run every
	// operator inline as a single morsel, which reproduces the paper's cost
	// accounting exactly; higher values dispatch morsels to a worker pool
	// without changing results or metered work. At every setting the
	// maintenance a statement leaves for later readers — its archive merges'
	// histogram fits and its write's index catch-up — runs on a goroutine of
	// its own, beside the next statement.
	Parallelism int
	// FlightRecorderCapacity enables the statement flight recorder with a
	// ring of that many records (SHOW QUERIES / EXPLAIN HISTORY read it);
	// negative values select flightrec.DefaultCapacity. 0 keeps no ring for
	// the engine's life; with no Trace either, statements then pay two
	// checks.
	FlightRecorderCapacity int
	// PlanCacheSize enables the compiled-plan cache with at most that many
	// entries: repeated SELECTs (keyed on sqlparser.Normalize of their text
	// and the engine's archive epoch) skip parse, JITS preparation and
	// optimization entirely. 0 disables the cache; negative selects
	// plancache.DefaultSize. Any DML, DDL, statistics migration or archive
	// restore bumps the epoch and invalidates every cached plan, so a plan
	// compiled against pre-update statistics is never reused afterwards.
	PlanCacheSize int
	// StorageChunkSize overrides the rows-per-chunk capacity of the
	// columnar storage layer for tables created by this engine; 0 keeps
	// storage.DefaultChunkSize. Benchmarks sweep it.
	StorageChunkSize int
	// Reopt arms checkpointed mid-query re-optimization: at pipeline
	// breakers (join-input materializations) the executor compares observed
	// cardinality against the plan's estimate, and when the q-error exceeds
	// reoptQErrorThreshold the engine re-plans the unexecuted remainder with
	// the materialized intermediates as exact-cardinality leaves, at most
	// maxReopts times a statement (reopt.go).
	Reopt bool
}

// Metrics reports the simulated timing split of one statement.
type Metrics struct {
	CompileUnits   float64
	ExecUnits      float64
	CompileSeconds float64
	ExecSeconds    float64
	TotalSeconds   float64
}

// Result is the outcome of one Exec call.
type Result struct {
	Columns []string
	// Rows is Out boxed into cells. The Exec family fills it at its exit;
	// ExecUnboxed leaves it nil. Count rows with Len, which reads neither.
	Rows [][]value.Datum
	// Out is the result set with no value boxed (nil for a statement that has
	// none): the executor's columns for a SELECT, the wrapped lines of an
	// EXPLAIN or a SHOW. It is what the SQL service encodes.
	Out          *executor.Columnar
	RowsAffected int
	Plan         string // EXPLAIN rendering of the chosen join tree
	Metrics      Metrics
	// Prepare is the statement's JITS decisions: empty when JITS is disabled,
	// nil for a statement that never compiles (DML, DDL, SHOW).
	Prepare *core.PrepareReport
	// PlanCacheHit reports that this statement reused a compiled plan from
	// the plan cache, skipping parse/JITS-prepare/optimize entirely.
	PlanCacheHit bool
	// Reopts counts the mid-query re-optimizations this statement went
	// through; Plan renders the plan that actually completed.
	Reopts int
}

// Len returns the number of rows in the result set.
func (r *Result) Len() int { return r.Out.Len() }

// Engine is the database instance.
type Engine struct {
	db          *storage.Database
	cat         *catalog.Catalog
	indexes     *index.Set
	feedback    *feedback.Store
	jits        *core.JITS
	weights     costmodel.Weights
	clock       atomic.Int64 // the logical clock; tick advances it
	recorder    *flightrec.Recorder
	governor    *govern.Governor
	parallelism int
	// reactive arms the reactive corrections (Config.ReactiveCorrections,
	// JITS disabled): observe merges each scan's actual selectivity into the
	// archive.
	reactive bool
	// reopt arms re-optimization; a checkpoint re-plans above reoptQError,
	// at most maxReopts times a statement.
	reopt       bool
	reoptQError float64
	maxReopts   int
	counts      *counts
	closed      atomic.Bool
	// maintenance owns the index catch-ups writes start (catchUpBeside), at
	// most one a table (catchUps).
	maintenance morsel.Beside
	catchUps    catchUps
	// planCache is nil when Config.PlanCacheSize is 0 (cache disabled).
	planCache *plancache.Cache
	// archiveEpoch versions the statistics/data state cached plans were
	// compiled against; bumpArchiveEpoch documents what moves it.
	archiveEpoch atomic.Uint64
}

// New creates an empty engine.
func New(cfg Config) *Engine {
	cat := catalog.New()
	fb := feedback.NewStore()
	return &Engine{
		db:          storage.NewDatabase(cfg.StorageChunkSize),
		cat:         cat,
		indexes:     index.NewSet(),
		feedback:    fb,
		jits:        core.New(cfg.JITS, cfg.Parallelism, fb, cat),
		weights:     costmodel.DefaultWeights(),
		recorder:    flightrec.New(cfg.FlightRecorderCapacity, cfg.Trace),
		governor:    govern.New(),
		parallelism: cfg.Parallelism,
		reactive:    cfg.ReactiveCorrections && !cfg.JITS.Enabled,
		reopt:       cfg.Reopt,
		reoptQError: reoptQErrorThreshold,
		maxReopts:   maxReopts,
		counts:      newCounts(),
		planCache:   plancache.New(cfg.PlanCacheSize),
	}
}

// DB exposes the storage layer (the data generator loads tables directly).
func (e *Engine) DB() *storage.Database { return e.db }

// Catalog exposes the system catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Indexes exposes the index registry.
func (e *Engine) Indexes() *index.Set { return e.indexes }

// Feedback exposes the feedback store: the StatHistory the sensitivity
// analysis reads and the drift accounts SHOW ACCURACY and SHOW DRIFT read.
// Safe to read concurrently with statements.
func (e *Engine) Feedback() *feedback.Store { return e.feedback }

// JITS exposes the framework coordinator (experiments tune s_max on it) and,
// through it, the engine's one statistics archive: the one every setting
// fills and the optimizer, SHOW STATS and SaveStatistics read.
func (e *Engine) JITS() *core.JITS { return e.jits }

// Weights returns the cost-model weights, costmodel.DefaultWeights.
func (e *Engine) Weights() costmodel.Weights { return e.weights }

// tick advances and returns the engine's logical clock. Every statement
// gets a fresh timestamp; histogram buckets and statistics carry these.
func (e *Engine) tick() int64 { return e.clock.Add(1) }

// Now returns the current logical time without advancing it.
func (e *Engine) Now() int64 { return e.clock.Load() }

// Recorder exposes the statement flight recorder. Always non-nil; its ring
// holds records only when Config.FlightRecorderCapacity is non-zero. Safe to
// read concurrently with statements and across Close.
func (e *Engine) Recorder() *flightrec.Recorder { return e.recorder }

// Closed reports whether Close has been called (the debug server's health
// endpoint reads this).
func (e *Engine) Closed() bool { return e.closed.Load() }

// Governor exposes the memory accounting: the live statements' reservations
// and the bytes they hold. The debug server's health endpoint and tests read
// it.
func (e *Engine) Governor() *govern.Governor { return e.governor }

// ArchiveEpoch returns the current statistics/data epoch. Cached plans are
// keyed on it; see bumpArchiveEpoch for what advances it.
func (e *Engine) ArchiveEpoch() uint64 { return e.archiveEpoch.Load() }

// bumpArchiveEpoch advances the epoch and eagerly sweeps now-stale plan
// cache entries. It is called after every statement or API that changes
// data or the statistics cached plans were costed against: DML (the archive
// merge counters and sensitivity analysis react to the same UDI activity),
// DDL, statistics migration, RUNSTATS, workload-stats collection, and
// archive restore.
func (e *Engine) bumpArchiveEpoch() {
	n := e.archiveEpoch.Add(1)
	e.planCache.Invalidate(n)
}

// TableSchema implements qgm.SchemaResolver.
func (e *Engine) TableSchema(name string) (*storage.Schema, bool) {
	tbl, ok := e.db.Table(name)
	if !ok {
		return nil, false
	}
	return tbl.Schema(), true
}

// ErrClosed is returned by Exec variants after Close.
var ErrClosed = errors.New("engine: closed")

// Close marks the engine closed: subsequent Exec calls fail with ErrClosed.
// In-flight statements finish normally. Close returns once the maintenance
// finished statements left running beside them has ended: the index
// catch-ups their writes started and the histogram fits their archive merges
// started, one close per owner. A closed owner starts nothing more, so a
// statement still in flight catches no index up beside it and runs its fits
// itself. (Parallel worker pools live only for the duration of one operator
// call and always drain before it returns.) Close is idempotent.
func (e *Engine) Close() error {
	e.closed.Store(true)
	e.maintenance.Close()
	e.jits.Archive().Close()
	return nil
}

// Exec parses and runs one SQL statement at the engine's default degree of
// parallelism and boxes its result set into Result.Rows: ExecUnboxed plus the
// one boxing an embedded caller asked for by calling it.
func (e *Engine) Exec(sql string) (*Result, error) {
	res, err := e.ExecUnboxed(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	res.Rows = res.Out.Rows()
	return res, nil
}

// ExecUnboxed parses and runs one SQL statement under ctx at the engine's
// degree of parallelism, leaving the result set as columns (Result.Out;
// Result.Rows stays nil). A deadline on ctx cancels JITS sampling at the next
// table boundary (the statement still compiles, degraded to catalog
// statistics) and execution at the next morsel boundary (the statement errors
// with context.DeadlineExceeded). It is the spine of the statement pipeline
// (see statement.go): reserve → probe cache → parse → begin → dispatch →
// finish.
func (e *Engine) ExecUnboxed(ctx context.Context, sql string) (*Result, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Per-statement memory reservation: sampling buffers and buffering
	// executor operators charge it; Release returns what an errored
	// statement still holds and records the statement's peak.
	mem := e.governor.NewReservation()
	defer mem.Release()
	s := &statement{ctx: ctx, sql: sql, mem: mem, start: time.Now(), meters: new(meters)}
	e.probeCache(s)
	var stmt sqlparser.Statement
	var parseWall time.Duration
	if !s.hit {
		// Parsing precedes the statement's tick and record, so its wall time
		// is taken here — only when there is a record to put it in — and
		// becomes the record's first phase below.
		var parseStart time.Time
		if e.recorder.Recording() {
			parseStart = time.Now()
		}
		var err error
		if stmt, err = s.parse(); err != nil {
			e.counts.errors.Add(1)
			return nil, err
		}
		if !parseStart.IsZero() {
			parseWall = time.Since(parseStart)
		}
	}
	// Begin: one logical-clock tick per statement, hit or parsed; the
	// timestamp doubles as the statement's qid in the flight recorder. Parse
	// errors returned above, so they consume no tick and leave no record.
	s.ts = e.tick()
	if s.rec = e.recorder.Begin(s.ts, sql); s.rec != nil {
		s.rec.ArchiveEpoch = s.epoch
		if !s.hit {
			s.rec.AddPhase(flightrec.PhaseParse, parseWall)
		}
	}
	res, err := e.dispatch(s, stmt)
	return e.finish(s, res, err)
}

// dispatch classifies the statement (its kind, counted) and runs it. A
// plan-cache hit carries no AST: probeCache already filled the compiled
// fields, and only executable SELECTs are ever cached.
func (e *Engine) dispatch(s *statement, stmt sqlparser.Statement) (*Result, error) {
	if s.hit {
		e.classify(s, kindSelect)
		return e.execSelect(s, nil)
	}
	var res *Result
	var err error
	var dmlTable string
	switch st := stmt.(type) {
	case *sqlparser.SelectStmt:
		e.classify(s, kindSelect)
		return e.execSelect(s, st)
	case *sqlparser.ExplainStmt:
		if st.Analyze {
			s.mode = modeExplainAnalyze
			e.classify(s, kindExplainAnalyze)
		} else {
			s.mode = modeExplain
			e.classify(s, kindExplain)
		}
		return e.execSelect(s, st.Select)
	case *sqlparser.ShowStmt:
		switch st.Kind {
		case sqlparser.ShowStats:
			e.classify(s, kindShowStats)
			return e.execShowStats(s.ts)
		case sqlparser.ShowQueries:
			e.classify(s, kindShowQueries)
			return e.execShowQueries(st.Last)
		case sqlparser.ShowMetrics:
			e.classify(s, kindShowMetrics)
			return e.execShowMetrics()
		case sqlparser.ShowAccuracy:
			e.classify(s, kindShowAccuracy)
			return e.execShowAccuracy(s.ts, st.Table)
		case sqlparser.ShowDrift:
			e.classify(s, kindShowDrift)
			return e.execShowDrift(s.ts)
		}
		return nil, fmt.Errorf("engine: unsupported SHOW %v", st.Kind)
	case *sqlparser.ExplainHistoryStmt:
		e.classify(s, kindExplainHistory)
		return e.execExplainHistory(st.QID)
	case *sqlparser.InsertStmt:
		e.classify(s, kindDML)
		dmlTable = st.Table
		res, err = e.execInsert(s, st)
	case *sqlparser.UpdateStmt:
		e.classify(s, kindDML)
		dmlTable = st.Table
		res, err = e.execUpdate(s, st)
	case *sqlparser.DeleteStmt:
		e.classify(s, kindDML)
		dmlTable = st.Table
		res, err = e.execDelete(s, st)
	case *sqlparser.CreateTableStmt:
		e.classify(s, kindDDL)
		res, err = e.execCreateTable(st)
	case *sqlparser.CreateIndexStmt:
		e.classify(s, kindDDL)
		res, err = e.execCreateIndex(st)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
	if err != nil {
		return nil, err
	}
	// Data- or statistics-changing statements move the archive epoch, so no
	// later statement can reuse a plan compiled against the old state.
	e.bumpArchiveEpoch()
	// DML churn ages the drift accounts of the table's column groups.
	if dmlTable != "" {
		e.feedback.RecordChurn(s.ts, dmlTable, int64(res.RowsAffected))
	}
	return res, nil
}

// finish is every statement's single exit: it stamps the flight record
// (kind, wall, memory peak, row counts, the simulated compile/exec split
// from the very Metrics the caller receives) and commits it, then settles
// the error and latency instruments.
func (e *Engine) finish(s *statement, res *Result, err error) (*Result, error) {
	wall := time.Since(s.start)
	if rec := s.rec; rec != nil {
		e.capture(s)
		rec.Kind = s.kind.String()
		rec.Wall = wall
		rec.MemPeakBytes = s.mem.Peak()
		if err != nil {
			rec.Err = err.Error()
		} else {
			rec.Rows = res.Len()
			rec.RowsAffected = res.RowsAffected
			rec.CompileSeconds = res.Metrics.CompileSeconds
			rec.ExecSeconds = res.Metrics.ExecSeconds
		}
		e.recorder.Commit(rec)
	}
	if err != nil {
		e.counts.errors.Add(1)
		return nil, err
	}
	e.counts.wall.Observe(wall.Seconds())
	return res, nil
}

// Degradation snapshots the JITS graceful-degradation counters: how many
// tables fell back to catalog statistics since the engine started, by cause.
func (e *Engine) Degradation() costmodel.DegradationCounts {
	return e.jits.DegradationCounts()
}

// buildMetrics assembles one statement's Metrics from its compile and
// execution meters. Every statement path — SELECT, EXPLAIN, EXPLAIN ANALYZE,
// DML, degraded compilation, timeout — reports through this single helper,
// so the invariant TotalSeconds == CompileSeconds + ExecSeconds holds
// everywhere (a meter nothing charged contributes zero).
func buildMetrics(compile, exec *costmodel.Meter) Metrics {
	m := Metrics{
		CompileUnits:   compile.Units(),
		CompileSeconds: compile.Seconds(),
		ExecUnits:      exec.Units(),
		ExecSeconds:    exec.Seconds(),
	}
	m.TotalSeconds = m.CompileSeconds + m.ExecSeconds
	return m
}

// rowsResult is the result of a statement that builds its own rows — the
// introspection statements, the EXPLAIN forms — in the shape every result
// leaves the pipeline in: columns named, rows wrapped, nothing in Rows yet.
func rowsResult(cols []string, rows [][]value.Datum) *Result {
	return &Result{Columns: cols, Out: executor.FromRows(cols, rows)}
}

// planRows renders a plan text as one result row per line under a "plan"
// column — the EXPLAIN / EXPLAIN ANALYZE result shape.
func planRows(text string) [][]value.Datum {
	var rows [][]value.Datum
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		rows = append(rows, []value.Datum{value.NewString(line)})
	}
	return rows
}

// analyzeAnnotator builds the EXPLAIN ANALYZE annotation callback: executor
// actuals per plan node, plus a degradation flag on scans whose JITS
// collection fell back to catalog statistics.
func analyzeAnnotator(stats *executor.ExecStats, prep *core.PrepareReport) optimizer.AnnotateFunc {
	return func(n optimizer.Node) (optimizer.Annotation, bool) {
		st, ok := stats.Lookup(n)
		if !ok {
			return optimizer.Annotation{}, false
		}
		a := optimizer.Annotation{ActualRows: st.Rows, Units: st.Units, Wall: st.Wall}
		if sc, isScan := n.(*optimizer.Scan); isScan && prep != nil {
			for _, tr := range prep.Tables {
				if tr.Degraded() && tr.Table == sc.Table {
					a.Flags = "degraded: " + tr.DegradeReason
				}
			}
		}
		return a, true
	}
}

// RunstatsAll collects general (basic + distribution) statistics on every
// table — the paper's "general statistics" baseline setting.
func (e *Engine) RunstatsAll() error {
	ts := e.tick()
	var m costmodel.Meter
	for _, name := range e.db.TableNames() {
		tbl, _ := e.db.Table(name)
		stats, err := catalog.Runstats(tbl, ts, &m, e.weights)
		if err != nil {
			return err
		}
		e.cat.SetTableStats(stats)
	}
	e.bumpArchiveEpoch()
	return nil
}

// CollectWorkloadStats precollects exact column-group statistics for every
// predicate group occurring in the given workload — the paper's "workload
// statistics" baseline: "if the workload information is available, it can
// be analyzed and all the needed statistics can be collected beforehand".
// The statistics are computed from the *current* data, exactly
// (core.WorkloadStatistics), into the engine's archive, and never refreshed,
// so subsequent updates silently stale them.
func (e *Engine) CollectWorkloadStats(sqls []string) error {
	ts := e.tick()
	var queries []*qgm.Query
	for _, sql := range sqls {
		// Workloads may contain DML; skip anything that is not a SELECT.
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			continue
		}
		if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
			if q, err := qgm.Build(sel, e); err == nil {
				queries = append(queries, q)
			}
		}
	}
	if err := core.WorkloadStatistics(e.jits.Archive(), e.db, queries, ts); err != nil {
		return err
	}
	e.bumpArchiveEpoch()
	return nil
}

// MigrateStats pushes archived 1-D QSS histograms into the catalog — the
// statistics-migration module. Migrated histograms change the catalog
// statistics future compilations cost against, so cached plans are stale
// afterwards.
func (e *Engine) MigrateStats() int {
	n := e.jits.MigrateToCatalog(e.tick())
	if n > 0 {
		e.bumpArchiveEpoch()
	}
	return n
}

// SaveStatistics serializes the QSS archive so a later engine instance can
// restore it (the archive persists inside the catalog in the paper's DB2
// prototype).
func (e *Engine) SaveStatistics(w io.Writer) error {
	return e.jits.Archive().Save(w)
}

// LoadStatistics restores a QSS archive previously written by
// SaveStatistics, replacing the current one. The next compilation plans from
// it, whether or not JITS collection is enabled.
func (e *Engine) LoadStatistics(r io.Reader) error {
	a, err := core.LoadArchive(r)
	if err != nil {
		return err
	}
	e.jits.RestoreArchive(a)
	e.bumpArchiveEpoch()
	return nil
}
