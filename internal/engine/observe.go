package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/feedback"
	"repro/internal/flightrec"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/tracing"
)

// Statement-level instruments on the process-wide default registry. They are
// resolved once at package init so the per-statement path touches only the
// instruments themselves (one atomic load each while the registry is
// disabled — see the metrics package doc).
var (
	stmtWall = metrics.Default().Histogram(
		"engine_statement_wall_seconds",
		"Wall-clock latency of one statement, parse through result.",
		metrics.LatencyBuckets())
	stmtCount = metrics.Default().CounterVec(
		"engine_statements_total",
		"Statements executed, by statement kind.",
		"kind")
	stmtSelect         = stmtCount.With("select")
	stmtExplain        = stmtCount.With("explain")
	stmtExplainAnalyze = stmtCount.With("explain_analyze")
	stmtExplainHistory = stmtCount.With("explain_history")
	stmtShowStats      = stmtCount.With("show_stats")
	stmtShowQueries    = stmtCount.With("show_queries")
	stmtShowMetrics    = stmtCount.With("show_metrics")
	stmtShowAccuracy   = stmtCount.With("show_accuracy")
	stmtShowDrift      = stmtCount.With("show_drift")
	stmtDML            = stmtCount.With("dml")
	stmtDDL            = stmtCount.With("ddl")
	stmtErrors         = metrics.Default().Counter(
		"engine_statement_errors_total",
		"Statements that returned an error.")

	// Per-operator q-error as an aggregable distribution (the flight
	// recorder keeps the same numbers per statement). Observed wherever
	// per-operator actuals are captured — which rides the recorder being
	// enabled, like the actuals themselves. "agg" is the estimate at the
	// aggregation input boundary: the engine does not model group counts,
	// so the plan root's estimate/actual pair is what the aggregation
	// stage was fed.
	qerrorHist = metrics.Default().HistogramVec(
		"engine_qerror",
		"Per-operator q-error (max(est,act)/min(est,act) of cardinalities), by operator kind.",
		"op",
		metrics.QErrorBuckets())
	qerrorScan = qerrorHist.With("scan")
	qerrorJoin = qerrorHist.With("join")
	qerrorAgg  = qerrorHist.With("agg")

	// Mid-query re-optimization instruments: how many pipeline-breaker
	// checkpoints statements evaluated, how often one tripped a re-plan (by
	// the operator kind whose estimate was wrong), and how long re-entrant
	// planning took.
	reoptCheckpoints = metrics.Default().Counter(
		"engine_reopt_checkpoints_total",
		"Pipeline-breaker checkpoints evaluated for mid-query re-optimization.")
	reoptTriggerCount = metrics.Default().CounterVec(
		"engine_reopt_triggers_total",
		"Mid-query re-optimizations triggered, by the misestimated operator kind.",
		"cause")
	reoptTriggerScan = reoptTriggerCount.With("scan")
	reoptTriggerJoin = reoptTriggerCount.With("join")
	reoptWall        = metrics.Default().Histogram(
		"engine_reopt_wall_seconds",
		"Wall-clock time of one mid-query re-planning pass.",
		metrics.LatencyBuckets())
)

// observe is the pipeline's feedback stage and the only place an executed
// SELECT's actuals reach their consumers: the LEO-style feedback loop
// (StatHistory → JITS archive), the accuracy ledger, the flight record's
// error factors, reactive corrections when that baseline is enabled, and the
// periodic statistics-migration cadence. Each scan's error factor is computed
// once and handed to both the record and the ledger, so the two cannot
// disagree. Superseded reopt attempts' scan feedback (captured at their
// trigger points) merges with the final attempt's: the subtrees that produced
// it never re-executed, so the union double-counts nothing.
func (e *Engine) observe(s *statement) {
	ts, rec := s.ts, s.rec
	mainActuals := mergedActuals(s.reopt, s.out.Actuals)
	allActuals := mainActuals
	if len(s.subActuals) > 0 {
		allActuals = append(s.subActuals, mainActuals...)
	}
	fb := e.phase(s, tracing.PhaseFeedback)
	var obs []core.Observation
	for _, a := range allActuals {
		if a.Trace == nil || a.Conditioned {
			continue
		}
		obs = append(obs, core.Observation{
			Table:     a.Trace.Table,
			ColGrp:    a.Trace.ColGrp,
			StatList:  a.Trace.StatList,
			EstSel:    a.Trace.EstSel,
			ActualSel: a.ActualSelectivity(),
			BaseCard:  int64(a.BaseRows),
		})
		ef := feedback.ErrorFactor(a.Trace.EstSel, a.ActualSelectivity(), int64(a.BaseRows))
		if rec != nil {
			rec.ErrorFactors = append(rec.ErrorFactors, ef)
		}
		// A statistic crossing into drifted annotates the statement that
		// tripped the detector. (A disabled ledger is one atomic load.)
		if tr, ok := e.accuracy.ObserveFeedback(ts, a.Trace.Table, a.Trace.ColGrp.String(), ef, int64(a.BaseRows)); ok && rec != nil {
			rec.Annotations = append(rec.Annotations,
				fmt.Sprintf("accuracy: %s %s -> %s", tr.Key, tr.From, tr.To))
		}
		if e.tracer.Enabled() {
			e.tracef("q%d feedback %s est=%.5f actual=%.5f stats=%v",
				ts, a.Trace.ColGrp, a.Trace.EstSel, a.ActualSelectivity(), a.Trace.StatList)
		}
	}
	e.jits.Feedback(obs)
	fb.span.Attr("observations", len(obs))
	fb.end()

	// Reactive corrections (LEO baseline): record the *observed*
	// selectivity of each local predicate group for future queries. Without
	// sample domains these land in the exact-match memo — precisely LEO's
	// granularity of adjustment.
	if e.reactiveQSS != nil {
		for slot, preds := range s.blk.LocalPreds {
			if len(preds) == 0 {
				continue
			}
			for _, a := range mainActuals {
				if a.Slot == slot && !a.Conditioned {
					e.reactiveQSS.Materialize(s.blk.Tables[slot].Table, preds, a.ActualSelectivity(), ts, nil)
					e.reactiveQSS.SetCardinality(s.blk.Tables[slot].Table, int64(a.BaseRows), ts)
				}
			}
		}
	}

	// Periodic statistics migration into the catalog.
	if e.migrateEvery > 0 && e.selectCount.Add(1)%int64(e.migrateEvery) == 0 {
		merge := e.phase(s, tracing.PhaseArchiveMerge)
		merge.span.Attr("migrated", e.migrate(ts))
		merge.end()
	}

	switch {
	case !e.tracer.Enabled(): // spare boxing the arguments
	case s.hit:
		e.tracef("q%d plan rows=%.1f cost=%.0f exec=%.4fs plan_cache=hit",
			ts, s.plan.Rows(), s.plan.Cost(), s.meters.exec.Seconds())
	default:
		e.tracef("q%d plan rows=%.1f cost=%.0f exec=%.4fs compile=%.4fs",
			ts, s.plan.Rows(), s.plan.Cost(), s.meters.exec.Seconds(), s.meters.compile.Seconds())
	}
}

// capture copies what the statement learned into its flight record — the one
// place a record's JITS decisions, plan and per-operator actuals are written.
// finish calls it for every recorded statement, so it fills in whatever the
// statement reached: a statement that failed mid-execution still records the
// tables it sampled and why they degraded; one that never planned (DML, SHOW)
// records nothing here.
func (e *Engine) capture(s *statement) {
	rec := s.rec
	rec.PlanCacheHit = s.hit
	rec.Reopts = s.reopts
	if s.prep != nil {
		rec.Degraded = s.prep.Degraded
		for _, tr := range s.prep.Tables {
			rec.Tables = append(rec.Tables, flightrec.TableSample{
				Table:      tr.Table,
				Collected:  tr.Collected,
				SampleRows: tr.SampleRows,
				Degraded:   tr.Degraded,
				Reason:     tr.DegradeReason,
			})
			if tr.Degraded {
				rec.DegradeCauses = append(rec.DegradeCauses, tr.DegradeNote())
			}
		}
	}
	if s.plan == nil || (s.mode != modeExplain && s.out == nil) {
		return // never planned, or failed before the plan completed
	}
	if s.qstats != nil {
		rec.ArchiveHits = s.qstats.ArchiveHits()
		rec.ArchiveMisses = s.qstats.ArchiveMisses()
	}
	if s.mode == modeExplain {
		rec.Plan = s.renderPlan(nil)
		return
	}
	// The annotated plan (the same rendering EXPLAIN ANALYZE produces,
	// replayed later by EXPLAIN HISTORY) and the per-operator estimate/actual
	// pairs with their q-error.
	rec.Plan = s.renderPlan(analyzeAnnotator(s.stats, s.prep))
	for _, root := range append([]optimizer.Node{s.plan}, s.subPlans...) {
		optimizer.Walk(root, func(n optimizer.Node) {
			op := flightrec.OperatorStats{EstRows: n.Rows()}
			if d, ok := n.(interface{ Describe() string }); ok {
				op.Op = d.Describe()
			}
			if st, ok := s.stats.Lookup(n); ok {
				op.ActRows = st.Rows
				op.QError = flightrec.QError(op.EstRows, op.ActRows)
				if op.QError > rec.WorstQError {
					rec.WorstQError = op.QError
				}
				switch n.(type) {
				case *optimizer.Scan:
					qerrorScan.Observe(op.QError)
				case *optimizer.Join:
					qerrorJoin.Observe(op.QError)
				}
			}
			rec.Operators = append(rec.Operators, op)
		})
	}
	observeAggQError(s.blk, s.plan, s.stats)
}

// observeAggQError records the "agg" q-error sample for aggregated blocks:
// the plan root's estimated vs. actual cardinality, i.e. the estimate the
// executor's aggregation stage (which has no plan node of its own) was fed.
func observeAggQError(blk *qgm.Block, plan optimizer.Node, stats *executor.ExecStats) {
	if blk == nil || !blk.Aggregated() {
		return
	}
	if st, ok := stats.Lookup(plan); ok {
		qerrorAgg.Observe(flightrec.QError(plan.Rows(), st.Rows))
	}
}
