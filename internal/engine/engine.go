// Package engine is the public facade of the database: it wires the SQL
// front end, the Query Graph Model, the JITS framework, the cost-based
// optimizer, the executor and the feedback loop into a single Exec call —
// the equivalent of the paper's modified DB2 engine.
//
// Every statement is one statement value threaded through one pipeline of
// explicit stages (statement.go; DESIGN.md §21):
//
//	admit       governor gate + per-statement memory reservation
//	probe cache normalized SQL + archive epoch → compiled plan, on a hit
//	parse       SQL text → AST                        (skipped on a hit)
//	begin       one logical-clock tick (the qid), flight record opened
//	dispatch    by statement kind; for a SELECT:
//	  compile   rewrite (QGM) → JITS Prepare (sensitivity analysis +
//	            sampling) → optimize                  (skipped on a hit)
//	  execute   metered physical operators, re-planning at checkpoints
//	  observe   actual vs. estimated selectivities → StatHistory/archive,
//	            accuracy ledger, flight record, corrections, migration
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

	"repro/internal/accuracy"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/executor"
	"repro/internal/feedback"
	"repro/internal/flightrec"
	"repro/internal/govern"
	"repro/internal/index"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/tracing"
	"repro/internal/value"
)

// Config configures a new engine instance.
type Config struct {
	// JITS configures the just-in-time statistics framework; the zero
	// value disables it (traditional processing).
	JITS core.Config
	// MigrateEvery, when positive, runs the statistics-migration module
	// automatically after every N SELECT statements — the paper's
	// "information in the QSS archive can be used to periodically update
	// the system catalog".
	MigrateEvery int
	// ReactiveCorrections enables a LEO-style *reactive* baseline (the
	// related-work family of the paper's §5.1): after each query, observed
	// actual selectivities are stored as exact-match corrections that
	// benefit future queries with the same predicate groups. The current
	// query still suffers from the wrong estimate — the paper's critique.
	// Only consulted when JITS collection is disabled.
	ReactiveCorrections bool
	// Trace, when non-nil, receives one line per notable per-query decision:
	// JITS collection choices with their s1/s2 scores, the chosen plan's
	// root, estimated-vs-actual selectivities observed by the feedback loop,
	// and per-phase span timings. All writes are serialized through an
	// internal tracing.Tracer, so the writer may be shared by concurrent
	// statements without external locking.
	Trace io.Writer
	// Parallelism is the default degree of intra-query parallelism for
	// SELECT execution, and the fixed degree of JITS sample evaluation
	// (copied into JITS.Parallelism when that is 0). Values <= 1 run every
	// operator inline as a single morsel, which reproduces the paper's cost
	// accounting exactly; higher values dispatch morsels to a worker pool
	// without changing results or metered work. ExecOptions.Parallelism
	// overrides execution only; sampling keeps the engine's degree.
	Parallelism int
	// FlightRecorderCapacity enables the statement flight recorder with a
	// ring of that many records (SHOW QUERIES / EXPLAIN HISTORY read it);
	// negative values select flightrec.DefaultCapacity. 0 leaves recording
	// off for the engine's life, and statements then pay one length check.
	FlightRecorderCapacity int
	// Governor configures the resource governor: admission control
	// (MaxConcurrent/QueueDepth), the engine-global memory pool, and the
	// JITS sampling circuit breaker. The zero value disables all three.
	// Its per-statement memory budget defaults to JITS.MemBudgetBytes, so
	// setting only the JITS knob budget-bounds both sampling buffers and
	// buffering executor operators.
	Governor govern.Config
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
	// the threshold the engine re-plans the unexecuted remainder with the
	// materialized intermediates as exact-cardinality leaves. The zero value
	// disables it.
	Reopt ReoptConfig
	// Accuracy configures the estimator-accuracy ledger (SHOW ACCURACY /
	// SHOW DRIFT, /debug/accuracy): per-statistic EWMA q-error, DML churn
	// and CUSUM drift detection over the feedback stream. The zero value
	// leaves the ledger disabled for the engine's life; statements then pay
	// one field load per probe.
	Accuracy accuracy.Config
}

// ExecOptions tune one Exec call — the per-query session knobs.
type ExecOptions struct {
	// Parallelism overrides the engine's default degree of parallelism for
	// this statement's execution; 0 keeps the engine default, 1 forces
	// serial. JITS sampling keeps the engine's degree (Config.Parallelism).
	Parallelism int
	// Timeout bounds this statement's wall-clock time; 0 means no deadline.
	// Expiry cancels JITS sampling at the next table boundary (the statement
	// still compiles, degraded to catalog statistics) and execution at the
	// next morsel boundary (the statement errors with
	// context.DeadlineExceeded).
	Timeout time.Duration
	// Annotations are free-form labels attached to the statement's
	// flight-recorder record (the SQL service tags statements that arrived
	// through a retry or on a resumed session). Ignored while the recorder
	// is disabled.
	Annotations []string
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
	Prepare      *core.PrepareReport // JITS decisions, nil when disabled
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
	db           *storage.Database
	cat          *catalog.Catalog
	indexes      *index.Set
	history      *feedback.History
	jits         *core.JITS
	weights      costmodel.Weights
	clock        atomic.Int64 // the logical clock; tick advances it
	migrateEvery int
	selectCount  atomic.Int64
	tracer       *tracing.Tracer
	recorder     *flightrec.Recorder
	accuracy     *accuracy.Ledger
	governor     *govern.Governor
	parallelism  int
	reoptCfg     ReoptConfig
	closed       atomic.Bool
	// planCache is nil when Config.PlanCacheSize is 0 (cache disabled).
	planCache *plancache.Cache
	// archiveEpoch versions the statistics/data state cached plans were
	// compiled against; bumpArchiveEpoch documents what moves it.
	archiveEpoch atomic.Uint64

	// staticQSS holds the "workload statistics" baseline: column-group
	// statistics precollected from the workload text and never refreshed.
	// Consulted only when JITS collection is disabled.
	staticQSS *core.Archive
	// reactiveQSS holds the LEO-style corrections store when
	// ReactiveCorrections is enabled.
	reactiveQSS *core.Archive
}

// New creates an empty engine.
func New(cfg Config) *Engine {
	cat := catalog.New()
	hist := feedback.NewHistory()
	ixs := index.NewSet()
	if cfg.JITS.Parallelism == 0 {
		cfg.JITS.Parallelism = cfg.Parallelism
	}
	tracer := tracing.New(cfg.Trace)
	jits := core.New(cfg.JITS, hist, cat)
	jits.BindIndexes(ixs)
	jits.BindTracer(tracer)
	recorder := flightrec.New(cfg.FlightRecorderCapacity)
	if cfg.Governor.StatementMemBudgetBytes == 0 {
		cfg.Governor.StatementMemBudgetBytes = cfg.JITS.MemBudgetBytes
	}
	governor := govern.New(cfg.Governor)
	jits.BindBreaker(governor.SamplingBreaker())
	// The accuracy ledger always exists; while disabled every probe on it is
	// one field load. It subscribes to archive merges through the JITS
	// coordinator and shares the tracer.
	ledger := accuracy.New(cfg.Accuracy, tracer)
	jits.BindMergeObserver(ledger)
	e := &Engine{
		db:           storage.NewDatabase(cfg.StorageChunkSize),
		cat:          cat,
		indexes:      ixs,
		history:      hist,
		jits:         jits,
		weights:      costmodel.DefaultWeights(),
		migrateEvery: cfg.MigrateEvery,
		tracer:       tracer,
		recorder:     recorder,
		accuracy:     ledger,
		governor:     governor,
		parallelism:  cfg.Parallelism,
		reoptCfg:     cfg.Reopt.withDefaults(),
		planCache:    plancache.New(cfg.PlanCacheSize),
	}
	if cfg.ReactiveCorrections {
		e.reactiveQSS = core.NewArchive(0, 0)
	}
	return e
}

// DB exposes the storage layer (the data generator loads tables directly).
func (e *Engine) DB() *storage.Database { return e.db }

// Catalog exposes the system catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Indexes exposes the index registry.
func (e *Engine) Indexes() *index.Set { return e.indexes }

// History exposes the feedback StatHistory.
func (e *Engine) History() *feedback.History { return e.history }

// JITS exposes the framework coordinator (experiments tune s_max on it).
func (e *Engine) JITS() *core.JITS { return e.jits }

// Weights returns the cost-model weights, costmodel.DefaultWeights.
func (e *Engine) Weights() costmodel.Weights { return e.weights }

// tick advances and returns the engine's logical clock. Every statement
// gets a fresh timestamp; histogram buckets and statistics carry these.
func (e *Engine) tick() int64 { return e.clock.Add(1) }

// Now returns the current logical time without advancing it.
func (e *Engine) Now() int64 { return e.clock.Load() }

// tracef writes one trace line when tracing is enabled. The tracer
// serializes concurrent writers; before it existed, concurrent statements
// interleaved partial lines (and raced) on the shared Config.Trace writer.
func (e *Engine) tracef(format string, args ...any) {
	e.tracer.Printf(format, args...)
}

// Tracer exposes the engine's phase tracer (tests and tools may emit their
// own lines through it; it is always non-nil).
func (e *Engine) Tracer() *tracing.Tracer { return e.tracer }

// Recorder exposes the statement flight recorder. Always non-nil; it records
// only when Config.FlightRecorderCapacity is non-zero. Safe to read
// concurrently with statements and across Close.
func (e *Engine) Recorder() *flightrec.Recorder { return e.recorder }

// Accuracy exposes the estimator-accuracy ledger. Always non-nil; it
// records only when Config.Accuracy.Enabled. Safe to read concurrently with
// statements.
func (e *Engine) Accuracy() *accuracy.Ledger { return e.accuracy }

// Closed reports whether Close has been called (the debug server's health
// endpoint reads this).
func (e *Engine) Closed() bool { return e.closed.Load() }

// Governor exposes the resource governor (always non-nil; with the zero
// Config.Governor it is a no-op governor whose snapshot reports everything
// disabled). The debug server's health endpoint and tests read it.
func (e *Engine) Governor() *govern.Governor { return e.governor }

// PlanCache exposes the compiled-plan cache; nil when Config.PlanCacheSize
// is 0. Tests and the serve experiment read its Stats.
func (e *Engine) PlanCache() *plancache.Cache { return e.planCache }

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
// In-flight statements finish normally (the engine has no background
// goroutines of its own — parallel worker pools live only for the duration
// of one operator call and always drain before it returns). Close is
// idempotent.
func (e *Engine) Close() error {
	e.closed.Store(true)
	return nil
}

// Drain waits until every admitted statement has released its governor slot
// and the admission queue is empty — the engine's graceful-drain hook.
// Callers that want a true drain must stop feeding the engine first (the SQL
// service stops accepting and quiesces its sessions before calling this);
// Drain itself rejects nothing. It returns ctx.Err() if the context expires
// while statements are still in flight, and immediately when admission
// control is disabled (there are no slots to account for).
func (e *Engine) Drain(ctx context.Context) error {
	return e.governor.WaitIdle(ctx)
}

// Exec parses and runs one SQL statement at the engine's default degree of
// parallelism.
func (e *Engine) Exec(sql string) (*Result, error) {
	return e.ExecWithContext(context.Background(), sql, ExecOptions{})
}

// ExecContext is Exec bounded by ctx: cancellation or deadline expiry stops
// JITS sampling at the next per-table boundary (compilation degrades to
// catalog statistics) and execution at the next morsel boundary (the
// statement returns the context's error).
func (e *Engine) ExecContext(ctx context.Context, sql string) (*Result, error) {
	return e.ExecWithContext(ctx, sql, ExecOptions{})
}

// ExecWith parses and runs one SQL statement with per-query session options.
func (e *Engine) ExecWith(sql string, opts ExecOptions) (*Result, error) {
	return e.ExecWithContext(context.Background(), sql, opts)
}

// ExecWithContext parses and runs one SQL statement with per-query session
// options under ctx and boxes its result set into Result.Rows: ExecUnboxed
// plus the one boxing an embedded caller asked for by calling it.
func (e *Engine) ExecWithContext(ctx context.Context, sql string, opts ExecOptions) (*Result, error) {
	res, err := e.ExecUnboxed(ctx, sql, opts)
	if err != nil {
		return nil, err
	}
	res.Rows = res.Out.Rows()
	return res, nil
}

// ExecUnboxed parses and runs one SQL statement with per-query session
// options under ctx, leaving the result set as columns (Result.Out;
// Result.Rows stays nil). A statement timeout (ExecOptions.Timeout) is
// layered onto ctx as a deadline. It is the spine of the statement pipeline
// (see statement.go): admit → probe cache → parse → begin → dispatch →
// finish.
func (e *Engine) ExecUnboxed(ctx context.Context, sql string, opts ExecOptions) (*Result, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Admission control: the statement queues (FIFO) for an execution slot
	// before any work — parsing included — happens on its behalf. Shed
	// statements fail with govern.ErrOverloaded; a statement cancelled while
	// queued returns ctx.Err() and gives any concurrently granted slot back.
	ticket, err := e.governor.Admit(ctx)
	if err != nil {
		stmtErrors.Inc()
		return nil, err
	}
	defer ticket.Release()
	// Per-statement memory reservation: sampling buffers and buffering
	// executor operators charge it; Release returns any leak (an errored
	// statement's outstanding charges) to the global pool.
	mem := e.governor.NewReservation()
	defer mem.Release()
	s := &statement{ctx: ctx, sql: sql, dop: opts.Parallelism, ticket: ticket, mem: mem, start: time.Now(), meters: new(meters)}
	if s.dop == 0 {
		s.dop = e.parallelism
	}
	e.probeCache(s)
	var stmt sqlparser.Statement
	if !s.hit {
		// Parsing precedes the statement's tick and record, so its span
		// carries qid 0 ("pre-statement") and the record has no parse phase.
		parse := e.phase(s, tracing.PhaseParse)
		stmt, err = sqlparser.Parse(sql)
		parse.end()
		if err != nil {
			stmtErrors.Inc()
			return nil, err
		}
	}
	// Begin: one logical-clock tick per statement, hit or parsed; the
	// timestamp doubles as the statement's qid in traces and the flight
	// recorder. Parse errors returned above, so they consume no tick.
	s.ts = e.tick()
	if s.rec = e.recorder.Begin(s.ts, sql); s.rec != nil {
		s.rec.Annotations = opts.Annotations
		s.rec.ArchiveEpoch = s.epoch
	}
	res, err := e.dispatch(s, stmt)
	return e.finish(s, res, err)
}

// dispatch classifies the statement (kind label + counter) and runs it. A
// plan-cache hit carries no AST: probeCache already filled the compiled
// fields, and only executable SELECTs are ever cached.
func (e *Engine) dispatch(s *statement, stmt sqlparser.Statement) (*Result, error) {
	if s.hit {
		s.classify("select", stmtSelect)
		return e.execSelect(s, nil)
	}
	var res *Result
	var err error
	var dmlTable string
	switch st := stmt.(type) {
	case *sqlparser.SelectStmt:
		s.classify("select", stmtSelect)
		return e.execSelect(s, st)
	case *sqlparser.ExplainStmt:
		if st.Analyze {
			s.mode = modeExplainAnalyze
			s.classify("explain_analyze", stmtExplainAnalyze)
		} else {
			s.mode = modeExplain
			s.classify("explain", stmtExplain)
		}
		return e.execSelect(s, st.Select)
	case *sqlparser.ShowStmt:
		switch st.Kind {
		case sqlparser.ShowStats:
			s.classify("show_stats", stmtShowStats)
			return e.execShowStats(s.ts)
		case sqlparser.ShowQueries:
			s.classify("show_queries", stmtShowQueries)
			return e.execShowQueries(st.Last)
		case sqlparser.ShowMetrics:
			s.classify("show_metrics", stmtShowMetrics)
			return e.execShowMetrics()
		case sqlparser.ShowAccuracy:
			s.classify("show_accuracy", stmtShowAccuracy)
			return e.execShowAccuracy(s.ts, st.Table)
		case sqlparser.ShowDrift:
			s.classify("show_drift", stmtShowDrift)
			return e.execShowDrift(s.ts)
		}
		return nil, fmt.Errorf("engine: unsupported SHOW %v", st.Kind)
	case *sqlparser.ExplainHistoryStmt:
		s.classify("explain_history", stmtExplainHistory)
		return e.execExplainHistory(st.QID)
	case *sqlparser.InsertStmt:
		s.classify("dml", stmtDML)
		dmlTable = st.Table
		res, err = e.execInsert(s, st)
	case *sqlparser.UpdateStmt:
		s.classify("dml", stmtDML)
		dmlTable = st.Table
		res, err = e.execUpdate(s, st)
	case *sqlparser.DeleteStmt:
		s.classify("dml", stmtDML)
		dmlTable = st.Table
		res, err = e.execDelete(s, st)
	case *sqlparser.CreateTableStmt:
		s.classify("ddl", stmtDDL)
		res, err = e.execCreateTable(st)
	case *sqlparser.CreateIndexStmt:
		s.classify("ddl", stmtDDL)
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
	// DML churn ages the accuracy ledger's view of the table's statistics.
	if dmlTable != "" && res.RowsAffected > 0 && e.accuracy.Enabled() {
		e.accuracy.RecordChurn(s.ts, dmlTable, int64(res.RowsAffected))
	}
	return res, nil
}

// finish is every statement's single exit: it stamps the flight record
// (kind, wall, queue wait, memory peak, row counts, the simulated
// compile/exec split from the very Metrics the caller receives) and commits
// it, then settles the error and latency instruments.
func (e *Engine) finish(s *statement, res *Result, err error) (*Result, error) {
	wall := time.Since(s.start)
	govern.ObserveStatementPeak(s.mem.Peak())
	if rec := s.rec; rec != nil {
		e.capture(s)
		rec.Kind = s.kind
		rec.Wall = wall
		rec.QueueWait = s.ticket.Wait()
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
		stmtErrors.Inc()
		return nil, err
	}
	stmtWall.Observe(wall.Seconds())
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
				if tr.Degraded && tr.Table == sc.Table {
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
// (core.WorkloadStatistics), and never refreshed, so subsequent updates
// silently stale them.
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
	archive, err := core.WorkloadStatistics(e.db, queries, ts)
	if err != nil {
		return err
	}
	e.staticQSS = archive
	e.bumpArchiveEpoch()
	return nil
}

// WorkloadStatsArchive exposes the static baseline archive (nil unless
// CollectWorkloadStats ran).
func (e *Engine) WorkloadStatsArchive() *core.Archive { return e.staticQSS }

// MigrateStats pushes archived 1-D QSS histograms into the catalog — the
// periodic statistics-migration step.
func (e *Engine) MigrateStats() int { return e.migrate(e.tick()) }

// migrate runs the migration module at ts. Migrated histograms change the
// catalog statistics future compilations cost against, so cached plans are
// stale afterwards.
func (e *Engine) migrate(ts int64) int {
	n := e.jits.MigrateToCatalog(ts)
	if n > 0 {
		e.bumpArchiveEpoch()
	}
	return n
}

// SaveStatistics serializes the QSS archive so a later engine instance can
// restore it (the archive persists inside the catalog in the paper's DB2
// prototype).
func (e *Engine) SaveStatistics(w io.Writer) error {
	return e.jits.SaveArchive(w)
}

// LoadStatistics restores a QSS archive previously written by
// SaveStatistics, replacing the current one.
func (e *Engine) LoadStatistics(r io.Reader) error {
	a, err := core.LoadArchive(r)
	if err != nil {
		return err
	}
	e.jits.RestoreArchive(a)
	e.bumpArchiveEpoch()
	return nil
}
