package engine

import (
	"fmt"
	"strconv"

	"repro/internal/feedback"
	"repro/internal/flightrec"
	"repro/internal/optimizer"
	"repro/internal/qgm"
)

// observe is the pipeline's feedback stage and the only place an executed
// SELECT's actuals reach their consumers: the feedback store (the StatHistory
// the JITS sensitivity analysis reads, and the drift accounts), the flight
// record's feedback, reactive corrections when that baseline is enabled, and
// the periodic statistics-migration cadence. The store computes each scan's
// error factor once and the record reports that value, so the two cannot
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
	fb := phase(s, flightrec.PhaseFeedback)
	var obs []feedback.Observation
	for _, a := range allActuals {
		if a.Trace == nil || a.Conditioned {
			continue
		}
		obs = append(obs, feedback.Observation{
			Table:     a.Trace.Table,
			ColGrp:    a.Trace.ColGrp,
			StatList:  a.Trace.StatList,
			EstSel:    a.Trace.EstSel,
			ActualSel: a.ActualSelectivity(),
			BaseCard:  int64(a.BaseRows),
		})
	}
	drifted := e.feedback.Observe(ts, obs)
	if rec != nil {
		for _, o := range obs {
			rec.Feedback = append(rec.Feedback, flightrec.Feedback{
				Stat:        o.ColGrp.String(),
				EstSel:      o.EstSel,
				ActualSel:   o.ActualSel,
				ErrorFactor: o.ErrorFactor,
				StatList:    statNames(o.StatList),
			})
		}
		// A column group crossing into drifted annotates the statement that
		// tripped the detector.
		for _, tr := range drifted {
			rec.Annotations = append(rec.Annotations, fmt.Sprintf("accuracy: %s %s -> %s cusum=%.2f obs=%d churn=%d",
				tr.Stat, tr.From, tr.To, tr.CUSUM, tr.Observations, tr.ChurnRows))
		}
	}
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
		merge := phase(s, flightrec.PhaseArchiveMerge)
		migrated := e.migrate(ts)
		merge.end()
		if rec != nil {
			rec.Annotations = append(rec.Annotations, "migrate: "+strconv.Itoa(migrated)+" histograms into the catalog")
		}
	}
}

// statNames renders a statlist for the flight record.
func statNames(list []qgm.StatName) []string {
	names := make([]string, len(list))
	for i, st := range list {
		names[i] = st.String()
	}
	return names
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
				Table:              tr.Table,
				Collected:          tr.Collected,
				S1:                 tr.Scores.S1,
				S2:                 tr.Scores.S2,
				SampleRows:         tr.SampleRows,
				GroupsEvaluated:    tr.GroupsEvaluated,
				GroupsMaterialized: tr.GroupsMaterialized,
				Degraded:           tr.Degraded,
				Reason:             tr.DegradeReason,
				Draw:               tr.Laps.Draw,
				Eval:               tr.Laps.Eval,
				NDV:                tr.Laps.NDV,
				Materialize:        tr.Laps.Materialize,
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
					e.counts.qerror[opScan].Observe(op.QError)
				case *optimizer.Join:
					e.counts.qerror[opJoin].Observe(op.QError)
				}
			}
			rec.Operators = append(rec.Operators, op)
		})
	}
	// The "agg" q-error of an aggregated block: the plan root's estimated vs.
	// actual cardinality, i.e. the estimate the executor's aggregation stage
	// (which has no plan node of its own) was fed.
	if s.blk != nil && s.blk.Aggregated() {
		if st, ok := s.stats.Lookup(s.plan); ok {
			e.counts.qerror[opAgg].Observe(flightrec.QError(s.plan.Rows(), st.Rows))
		}
	}
}
