package engine

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/executor"
	"repro/internal/flightrec"
	"repro/internal/govern"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/tracing"
	"repro/internal/value"
)

// The statement pipeline. Every statement is one statement value threaded
// through explicit stages:
//
//	admit → probe cache → parse → begin (tick, record) → dispatch → finish
//
// and a SELECT's dispatch is
//
//	compile → execute (reopt loop) → observe → cache plan → result
//
// A plan-cache hit is the same pipeline with parse and compile skipped: the
// probe fills the compiled fields from the cache entry and the statement
// joins the shared execute/observe/finish code. EXPLAIN stops after compile;
// EXPLAIN ANALYZE runs everything and renders the annotated plan as rows.
// What legitimately differs between those variants is data on the struct
// (hit, mode), never a second code path.

// execMode selects how far a SELECT runs and what its result renders.
type execMode uint8

const (
	// modeExecute runs the statement and returns its rows.
	modeExecute execMode = iota
	// modeExplain compiles only (including JITS collection) and returns the
	// plan text as rows.
	modeExplain
	// modeExplainAnalyze runs the full pipeline and returns the plan text
	// annotated with per-operator actuals as rows.
	modeExplainAnalyze
)

// statement is one SQL statement's state as it moves through the pipeline.
type statement struct {
	// Fixed at admission.
	ctx    context.Context
	sql    string
	dop    int
	start  time.Time
	ticket *govern.Ticket
	mem    *govern.Reservation

	// Plan-cache probe: the normalized key ("" when the cache is off or the
	// text does not lex), the archive epoch the statement runs under, and
	// whether the compiled fields below came from a cache entry.
	cacheKey string
	epoch    uint64
	hit      bool

	// Identity: the logical-clock tick (also the qid), the flight record (nil
	// while the recorder is off), the statement-kind label and SELECT mode.
	ts   int64
	rec  *flightrec.Record
	kind string
	mode execMode

	// Compiled form — written by compile, or by probeCache on a hit.
	blk      *qgm.Block
	plan     optimizer.Node      // replaced by the re-planned tree on a reopt
	subPlans []optimizer.Node    // IN-subquery plans, in semi-join order
	prep     *core.PrepareReport // JITS decisions of the compiling statement
	qstats   *core.QueryStats    // this statement's QSS; nil on a hit
	octx     *optimizer.Context  // nil on a hit until a reopt trigger needs it
	// planText is s.plan's EXPLAIN text at s.dop once rendered: by cachePlan,
	// or by probeCache from an entry rendered at the same dop. A re-planned
	// s.plan clears it.
	planText string

	// Execution state.
	meters     *meters
	stats      *executor.ExecStats // per-operator actuals; nil unless recorded or ANALYZE
	reopt      *executor.ReoptState
	reopts     int
	subActuals []executor.ScanActual // IN-subquery scan feedback
	out        *executor.Columnar
}

// meters are a statement's two work accounts: compilation (JITS collection,
// optimization, re-planning) and execution. They are their own allocation
// because the executor runtime and the optimizer context keep pointers to
// them; the statement value itself never leaves ExecUnboxed's stack.
type meters struct{ compile, exec costmodel.Meter }

// phaseTimer times one stage of a statement: a trace span while tracing is
// on, and a wall time the statement appends to its own flight record while it
// is recorded. A statement that is neither traced nor recorded reads no clock.
type phaseTimer struct {
	rec   *flightrec.Record
	name  string
	start time.Time
	span  *tracing.Span
}

// phase opens the named stage of s.
func (e *Engine) phase(s *statement, name string) phaseTimer {
	p := phaseTimer{rec: s.rec, name: name, span: e.tracer.Start(s.ts, name)}
	if p.rec != nil {
		p.start = time.Now()
	}
	return p
}

// end closes the stage.
func (p *phaseTimer) end() {
	if p.rec != nil {
		p.rec.AddPhase(p.name, time.Since(p.start))
	}
	p.span.End()
}

// classify stamps the statement-kind label and counts it.
func (s *statement) classify(kind string, counter *metrics.Counter) {
	s.kind = kind
	counter.Inc()
}

// execSelect runs the SELECT stages for s.mode. modeExplain compiles —
// including any JITS statistics collection, whose cost shows up in the
// metrics — but does not execute. modeExplainAnalyze runs the full pipeline
// (execution, feedback, reactive corrections, migration) like modeExecute.
func (e *Engine) execSelect(s *statement, sel *sqlparser.SelectStmt) (*Result, error) {
	// EXPLAIN ANALYZE — and any executing statement the flight recorder is
	// capturing — collects per-plan-node actuals from the executor; stats
	// stays nil otherwise, keeping the normal path free of the per-operator
	// meter and clock reads.
	if s.mode == modeExplainAnalyze || (s.rec != nil && s.mode != modeExplain) {
		s.stats = executor.NewExecStats()
	}
	if !s.hit {
		if err := e.compile(s, sel); err != nil {
			return nil, err
		}
	}
	if s.mode != modeExplain {
		if err := e.execute(s); err != nil {
			return nil, err
		}
		e.observe(s)
		e.cachePlan(s)
	}
	return s.result(), nil
}

// compile is the stage a plan-cache hit skips: QGM rewrite, JITS Prepare
// (sensitivity analysis + sampling) and optimization, IN-subqueries included.
func (e *Engine) compile(s *statement, sel *sqlparser.SelectStmt) error {
	q, err := qgm.Build(sel, e)
	if err != nil {
		return err
	}
	q.SQL = s.sql
	s.blk = q.Blocks[0]

	// JITS compile-time statistics collection. Prepare degrades rather than
	// fails: on budget exhaustion, sampling faults or cancellation it
	// reports fallback tables and the optimizer below transparently uses
	// catalog statistics for them.
	prepare := e.phase(s, tracing.PhasePrepare)
	qstats, prep, err := e.jits.PrepareBudgeted(s.ctx, q, e.db, s.ts, &s.meters.compile, e.weights, s.mem)
	if prepare.span != nil && prep != nil {
		prepare.span.Attr("tables", len(prep.Tables)).Attr("units", fmt.Sprintf("%.0f", s.meters.compile.Units()))
	}
	if s.rec != nil && prep != nil {
		// The sampling passes ran inside prepare, so they end before it does.
		for _, tr := range prep.Tables {
			if tr.SampleWall > 0 {
				s.rec.AddPhase(tracing.PhaseSample, tr.SampleWall)
			}
		}
	}
	prepare.end()
	if err != nil {
		return err
	}
	s.qstats, s.prep = qstats, prep
	if e.tracer.Enabled() && prep != nil {
		for _, tr := range prep.Tables {
			e.tracef("q%d jits %s collected=%v s1=%.3f s2=%.3f sample=%d groups=%d materialized=%d",
				s.ts, tr.Table, tr.Collected, tr.Scores.S1, tr.Scores.S2,
				tr.SampleRows, tr.GroupsEvaluated, tr.GroupsMaterialized)
			if tr.Degraded {
				e.tracef("q%d jits degraded: %s (catalog fallback)", s.ts, tr.DegradeNote())
			}
		}
	}
	var source optimizer.StatsSource
	switch {
	case qstats != nil:
		source = qstats
	case e.staticQSS != nil:
		source = core.ArchiveStats(e.staticQSS, s.ts)
	case e.reactiveQSS != nil:
		source = core.ArchiveStats(e.reactiveQSS, s.ts)
	}
	s.octx = e.optimizerContext(s, source)

	optimize := e.phase(s, tracing.PhaseOptimize)
	if err = e.optimize(s, q); err == nil && optimize.span != nil {
		optimize.span.Attr("units", fmt.Sprintf("%.0f", s.meters.compile.Units()))
	}
	optimize.end()
	return err
}

// optimizerContext builds the statement's optimizer context over the given
// statistics source; all planning work accrues on the compile meter.
func (e *Engine) optimizerContext(s *statement, qss optimizer.StatsSource) *optimizer.Context {
	return &optimizer.Context{
		Est:     &optimizer.Estimator{Cat: e.cat, QSS: qss},
		Indexes: e.indexes,
		Weights: e.weights,
		Meter:   &s.meters.compile,
	}
}

// optimize plans the statement. IN-subquery blocks are planned and executed
// first and each semi-join is lowered into an IN predicate on the outer
// block, so the outer optimization sees the materialized match set.
func (e *Engine) optimize(s *statement, q *qgm.Query) error {
	for _, sj := range s.blk.SemiJoins {
		inner := q.Blocks[sj.Block]
		innerPlan, err := optimizer.Optimize(inner, s.octx)
		if err != nil {
			return err
		}
		s.subPlans = append(s.subPlans, innerPlan)
		if s.mode == modeExplain {
			continue
		}
		innerRes, err := executor.Run(inner, innerPlan, e.runtime(s))
		if err != nil {
			return err
		}
		s.subActuals = append(s.subActuals, innerRes.Actuals...)
		seen := make(map[value.Key]bool, innerRes.Len())
		values := make([]value.Datum, 0, innerRes.Len())
		for _, d := range innerRes.Cells(0, nil) {
			if k := d.Key(); !d.IsNull() && !seen[k] {
				seen[k] = true
				values = append(values, d)
			}
		}
		s.blk.LocalPreds[sj.Slot] = append(s.blk.LocalPreds[sj.Slot], qgm.Predicate{
			Slot: sj.Slot, Column: sj.Column, Ordinal: sj.Ordinal,
			Op: qgm.OpIn, Values: values,
		})
	}
	plan, err := optimizer.Optimize(s.blk, s.octx)
	if err != nil {
		return err
	}
	s.plan = plan
	return nil
}

// runtime is the one place an executor.Runtime is built. s.reopt is still
// nil while compile executes IN-subquery blocks, so only the outer block's
// execution arms re-optimization checkpoints.
func (e *Engine) runtime(s *statement) *executor.Runtime {
	return &executor.Runtime{
		DB: e.db, Indexes: e.indexes, Weights: e.weights,
		Meter: &s.meters.exec, Ctx: s.ctx, Parallelism: s.dop,
		Stats: s.stats, Mem: s.mem, Reopt: s.reopt,
	}
}

// renderPlan assembles the outer plan plus subquery sections, annotated when
// ann is non-nil. The plain text, once rendered, is s.planText.
func (s *statement) renderPlan(ann optimizer.AnnotateFunc) string {
	if ann == nil && s.planText != "" {
		return s.planText
	}
	text := optimizer.ExplainAnnotated(s.plan, s.dop, ann)
	for i, sp := range s.subPlans {
		text += "Subquery " + strconv.Itoa(i+1) + ":\n" + optimizer.ExplainAnnotated(sp, s.dop, ann)
	}
	return text
}

// result renders the statement's outcome for its mode: the executor's columns
// for an executed SELECT, the plan text as rows — annotated with actuals under
// ANALYZE — for the EXPLAIN forms. Nothing is boxed here. A hit normally
// reports zero compile cost (the amortization the cache buys; re-planning
// after a trigger is the exception) and carries the compiling statement's
// PrepareReport, so degradation flags are stable across reuse.
func (s *statement) result() *Result {
	var ann optimizer.AnnotateFunc
	if s.mode == modeExplainAnalyze {
		ann = analyzeAnnotator(s.stats, s.prep)
	}
	res := &Result{
		Plan:         s.renderPlan(ann),
		Metrics:      buildMetrics(&s.meters.compile, &s.meters.exec),
		Prepare:      s.prep,
		PlanCacheHit: s.hit,
		Reopts:       s.reopts,
	}
	if s.mode == modeExecute {
		res.Columns, res.Out = s.out.Names, s.out
	} else {
		res.Columns = []string{"plan"}
		res.Out = executor.FromRows(res.Columns, planRows(res.Plan))
	}
	return res
}
