package engine

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// stmtKind classifies a statement: the flight record's kind and the
// engine_statements_total label are both its String.
type stmtKind uint8

const (
	kindNone stmtKind = iota // not classified: the statement failed first
	kindSelect
	kindExplain
	kindExplainAnalyze
	kindExplainHistory
	kindShowStats
	kindShowQueries
	kindShowMetrics
	kindShowAccuracy
	kindShowDrift
	kindDML
	kindDDL
	numKinds
)

var kindNames = [numKinds]string{"", "select", "explain", "explain_analyze", "explain_history",
	"show_stats", "show_queries", "show_metrics", "show_accuracy", "show_drift", "dml", "ddl"}

func (k stmtKind) String() string { return kindNames[k] }

// The operator kinds a q-error is observed for, the engine_qerror labels.
// "agg" is the estimate at the aggregation input boundary: the engine does
// not model group counts, so the plan root's estimate/actual pair is what
// the aggregation stage was fed. Re-optimization triggers are labelled with
// the first two.
const (
	opScan = iota
	opJoin
	opAgg
	numOps
)

var opNames = [numOps]string{"scan", "join", "agg"}

// counts are the engine's own statement totals: statements by kind, errors,
// wall time, per-operator q-error (observed wherever per-operator actuals
// are captured, which rides the recorder like the actuals themselves), and
// mid-query re-optimization's checkpoints, triggers by the misestimated
// operator kind, and re-planning wall time.
type counts struct {
	statements       [numKinds]atomic.Int64
	errors           atomic.Int64
	wall             *metrics.Histogram
	qerror           [numOps]*metrics.Histogram
	reoptCheckpoints atomic.Int64
	reoptTriggers    [opAgg]atomic.Int64
	reoptWall        *metrics.Histogram
}

func newCounts() *counts {
	c := &counts{
		wall:      metrics.NewHistogram(metrics.LatencyBuckets()),
		reoptWall: metrics.NewHistogram(metrics.LatencyBuckets()),
	}
	for op := range c.qerror {
		c.qerror[op] = metrics.NewHistogram(metrics.QErrorBuckets())
	}
	return c
}

// Scrape reads this engine's series from the structs that own each count:
// the engine's statement totals, the JITS coordinator, its archives, the
// governor, the feedback store and the plan cache. SHOW METRICS renders it
// as rows and the debug server's /metrics as text; nothing else in the
// process contributes to it.
func (e *Engine) Scrape() metrics.Set {
	var set metrics.Set
	c := e.counts
	kinds := make([]metrics.Series, 0, numKinds-1)
	for k := kindNone + 1; k < numKinds; k++ {
		kinds = append(kinds, metrics.Series{LabelValue: k.String(), Value: float64(c.statements[k].Load())})
	}
	qerror := make([]metrics.Series, numOps)
	for op, h := range c.qerror {
		qerror[op] = metrics.Series{LabelValue: opNames[op], Hist: h}
	}
	triggers := make([]metrics.Series, len(c.reoptTriggers))
	for op := range c.reoptTriggers {
		triggers[op] = metrics.Series{LabelValue: opNames[op], Value: float64(c.reoptTriggers[op].Load())}
	}
	set.CounterBy("engine_statements_total", "Statements executed, by statement kind.", "kind", kinds)
	set.Counter("engine_statement_errors_total", "Statements that returned an error.", float64(c.errors.Load()))
	set.Histogram("engine_statement_wall_seconds", "Wall-clock latency of one statement, parse through result.", c.wall)
	set.HistogramBy("engine_qerror",
		"Per-operator q-error (max(est,act)/min(est,act) of cardinalities), by operator kind.", "op", qerror)
	set.Counter("engine_reopt_checkpoints_total",
		"Pipeline-breaker checkpoints evaluated for mid-query re-optimization.", float64(c.reoptCheckpoints.Load()))
	set.CounterBy("engine_reopt_triggers_total",
		"Mid-query re-optimizations triggered, by the misestimated operator kind.", "cause", triggers)
	set.Histogram("engine_reopt_wall_seconds", "Wall-clock time of one mid-query re-planning pass.", c.reoptWall)

	e.jits.Scrape(&set)
	e.jits.Archive().Scrape(&set)
	e.governor.Scrape(&set)
	e.feedback.Scrape(&set)
	e.planCache.Scrape(&set)
	return set
}
