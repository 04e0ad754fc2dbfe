package engine

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/accuracy"
	"repro/internal/metrics"
	"repro/internal/qgm"
	"repro/internal/value"
)

// This file implements the SQL introspection statements — SHOW STATS, SHOW
// QUERIES [LAST n], SHOW METRICS, SHOW ACCURACY [FOR t], SHOW DRIFT and
// EXPLAIN HISTORY <qid>. They run through the ordinary Exec path and return
// ordinary result sets, so the differential and chaos harnesses can replay
// them like any other statement.

// execShowStats lists the QSS archive's grid histograms: shape (dimensions,
// buckets), maximum-entropy merge count, staleness in logical ticks relative
// to the statement's own timestamp, and the feedback loop's last EWMA error
// factor attributed to the statistic (NULL when no feedback used it yet).
func (e *Engine) execShowStats(ts int64) (*Result, error) {
	cols := []string{"stat", "table", "columns", "dims", "buckets", "merges", "last_used", "updated_at", "staleness", "error_factor"}
	snaps := e.jits.Archive().Snapshot()
	rows := make([][]value.Datum, 0, len(snaps))
	for _, s := range snaps {
		// Staleness counts ticks since the histogram last absorbed a merge;
		// a histogram restored from disk (UpdatedAt 0) is as stale as its
		// last optimizer use suggests.
		ref := s.UpdatedAt
		if ref == 0 {
			ref = s.LastUsed
		}
		staleness := ts - ref
		if staleness < 0 {
			staleness = 0
		}
		ef := value.Null
		if f, ok := e.history.LastErrorFactorFor(qgm.ColumnGroup(s.Table, s.Columns)); ok {
			ef = value.NewFloat(f)
		}
		rows = append(rows, []value.Datum{
			value.NewString(s.Key),
			value.NewString(s.Table),
			value.NewString(strings.Join(s.Columns, ",")),
			value.NewInt(int64(s.Dims)),
			value.NewInt(int64(s.Buckets)),
			value.NewInt(int64(s.Merges)),
			value.NewInt(s.LastUsed),
			value.NewInt(s.UpdatedAt),
			value.NewInt(staleness),
			ef,
		})
	}
	return rowsResult(cols, rows), nil
}

// execShowQueries renders the flight recorder's retained records, oldest
// first. last ≤ 0 returns everything in the ring.
func (e *Engine) execShowQueries(last int) (*Result, error) {
	cols := []string{"qid", "kind", "sql", "rows", "wall_ms", "compile_s", "exec_s",
		"worst_qerror", "sampled_tables", "archive_hits", "archive_misses", "degraded", "reopts", "error", "epoch"}
	recs := e.recorder.Last(last)
	rows := make([][]value.Datum, 0, len(recs))
	for _, r := range recs {
		sampled := ""
		for _, t := range r.Tables {
			if !t.Collected {
				continue
			}
			if sampled != "" {
				sampled += ","
			}
			sampled += t.Table
		}
		degraded := int64(0)
		if r.Degraded {
			degraded = 1
		}
		rows = append(rows, []value.Datum{
			value.NewInt(r.QID),
			value.NewString(r.Kind),
			value.NewString(r.SQL),
			value.NewInt(int64(r.Rows)),
			value.NewFloat(float64(r.Wall) / float64(time.Millisecond)),
			value.NewFloat(r.CompileSeconds),
			value.NewFloat(r.ExecSeconds),
			value.NewFloat(r.WorstQError),
			value.NewString(sampled),
			value.NewInt(int64(r.ArchiveHits)),
			value.NewInt(int64(r.ArchiveMisses)),
			value.NewInt(degraded),
			value.NewInt(int64(r.Reopts)),
			value.NewString(r.Err),
			value.NewInt(int64(r.ArchiveEpoch)),
		})
	}
	return rowsResult(cols, rows), nil
}

// execShowMetrics snapshots the process-wide metrics registry as rows —
// counters and gauges one row each, histograms as their _count and _sum
// series. The registry must be enabled for values to be non-zero, exactly
// as with the /metrics exposition.
func (e *Engine) execShowMetrics() (*Result, error) {
	cols := []string{"name", "label", "value"}
	samples := metrics.Samples()
	rows := make([][]value.Datum, 0, len(samples))
	for _, s := range samples {
		rows = append(rows, []value.Datum{
			value.NewString(s.Name),
			value.NewString(s.Label),
			value.NewFloat(s.Value),
		})
	}
	return rowsResult(cols, rows), nil
}

// accuracyRows renders ledger snapshot rows for SHOW ACCURACY / SHOW DRIFT.
// Staleness-style ages (merge_age, churn) are relative to the statement's
// own timestamp, matching SHOW STATS.
func accuracyRows(ts int64, snaps []accuracy.StatAccuracy) [][]value.Datum {
	rows := make([][]value.Datum, 0, len(snaps))
	for _, s := range snaps {
		age := ts - s.LastMerge
		if age < 0 {
			age = 0
		}
		driftedAt := value.Null
		if s.DriftedAt > 0 {
			driftedAt = value.NewInt(s.DriftedAt)
		}
		rows = append(rows, []value.Datum{
			value.NewString(s.Key),
			value.NewString(s.Table),
			value.NewString(s.State),
			value.NewInt(int64(s.Observations)),
			value.NewFloat(s.EWMAQError),
			value.NewFloat(s.CUSUM),
			value.NewInt(s.ChurnSinceMerge),
			value.NewInt(age),
			value.NewInt(int64(s.Merges)),
			value.NewInt(s.LastObserved),
			driftedAt,
		})
	}
	return rows
}

var accuracyCols = []string{"stat", "table", "state", "observations", "ewma_qerror",
	"cusum", "churn_rows", "merge_age", "merges", "last_observed", "drifted_at"}

// execShowAccuracy lists the accuracy ledger: one row per tracked statistic
// with its freshness state, decayed q-error, drift evidence and churn.
// table filters to one table's statistics; empty lists all.
func (e *Engine) execShowAccuracy(ts int64, table string) (*Result, error) {
	return rowsResult(accuracyCols, accuracyRows(ts, e.accuracy.Snapshot(table))), nil
}

// execShowDrift lists only the statistics currently in the drifted state —
// the operator's "what went stale" view.
func (e *Engine) execShowDrift(ts int64) (*Result, error) {
	return rowsResult(accuracyCols, accuracyRows(ts, e.accuracy.Drifted())), nil
}

// execExplainHistory replays the flight-recorded plan of statement qid with
// the actuals captured when it ran — the post-hoc EXPLAIN ANALYZE.
func (e *Engine) execExplainHistory(qid int64) (*Result, error) {
	rec, ok := e.recorder.Get(qid)
	if !ok {
		return nil, fmt.Errorf("engine: no flight record for statement q%d (recorder disabled, or the ring wrapped past it)", qid)
	}
	if rec.Plan == "" {
		return nil, fmt.Errorf("engine: statement q%d (%s) recorded no plan", qid, rec.Kind)
	}
	res := rowsResult([]string{"plan"}, planRows(rec.Plan))
	res.Plan = rec.Plan
	return res, nil
}
