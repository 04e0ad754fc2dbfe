package engine

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/executor"
	"repro/internal/flightrec"
	"repro/internal/optimizer"
	"repro/internal/qgm"
)

// Mid-query re-optimization (engine side). The executor checkpoints every
// join-input materialization; when one observes a cardinality whose q-error
// against the plan's estimate exceeds the threshold, execution unwinds with
// *executor.ReoptTriggered and the loop below re-enters the optimizer over
// the unexecuted remainder — materialized intermediates become exact-
// cardinality leaves (optimizer.Materialized) — then resumes on the spliced
// plan. Results are identical by construction: only the join order and
// operator choices of nodes that have not produced output yet may change.

// Reopt defaults selected by zero/negative ReoptConfig fields.
const (
	// DefaultReoptQErrorThreshold is the q-error a checkpoint must exceed to
	// trigger re-planning. 10 is far above the noise of healthy estimates
	// (the paper's JITS plans sit near 1) but well below the 100x-1000x
	// blowups of correlated-predicate misestimates.
	DefaultReoptQErrorThreshold = 10.0
	// DefaultMaxReopts caps re-planning attempts per statement.
	DefaultMaxReopts = 2
)

// ReoptConfig arms checkpointed mid-query re-optimization.
type ReoptConfig struct {
	// Enabled arms checkpoints at pipeline breakers (join-input
	// materializations). Statements with LIMIT but no deterministic total
	// order are exempt: which rows survive such a limit is plan-dependent,
	// and re-optimization guarantees identical results.
	Enabled bool
	// QErrorThreshold is the q-error above which a checkpoint re-plans;
	// values <= 0 select DefaultReoptQErrorThreshold.
	QErrorThreshold float64
	// MaxReopts caps re-planning attempts per statement; values <= 0 select
	// DefaultMaxReopts.
	MaxReopts int
}

func (c ReoptConfig) withDefaults() ReoptConfig {
	if c.QErrorThreshold <= 0 {
		c.QErrorThreshold = DefaultReoptQErrorThreshold
	}
	if c.MaxReopts <= 0 {
		c.MaxReopts = DefaultMaxReopts
	}
	return c
}

// newReoptState returns a fresh per-statement checkpoint state, or nil when
// re-optimization is off or the block's LIMIT makes row identity
// plan-dependent (LIMIT without ORDER BY returns whichever rows the plan
// reached first — re-planning mid-query would change the answer; LIMIT with
// ORDER BY still breaks ties by plan-produced row order).
func (e *Engine) newReoptState(blk *qgm.Block) *executor.ReoptState {
	if !e.reoptCfg.Enabled || blk.Limit >= 0 {
		return nil
	}
	return executor.NewReoptState(e.reoptCfg.QErrorThreshold, e.reoptCfg.MaxReopts)
}

// execute is the pipeline's execution stage: it runs s.plan to completion
// into s.out as the execute phase, re-entering the optimizer each time a
// checkpoint triggers; s.plan ends as the plan that actually completed
// (re-planned or original) and s.reopts as the trigger count. With
// re-optimization off (nil s.reopt) the loop is one plain executor.Run.
//
// A cached plan can be *wrong* — compiled against estimates the data has
// since outgrown within one epoch, or simply misestimated from the start —
// so checkpoints arm on a plan-cache hit exactly as on a cold statement.
// The first trigger on a hit evicts the cache entry (the plan just proved
// itself stale; the next execution must recompile rather than re-walk the
// same trap) and builds the re-planning context the skipped compile stage
// never made. That estimator is catalog-only — no JITS sampling ran for this
// execution — which is fine: the materialized intermediates carry exact
// cardinalities, and they are what re-planning pivots on.
func (e *Engine) execute(s *statement) error {
	exec := phase(s, flightrec.PhaseExecute)
	s.reopt = e.newReoptState(s.blk)
	rt := e.runtime(s)
	for {
		res, err := executor.Run(s.blk, s.plan, rt)
		var trig *executor.ReoptTriggered
		if err == nil || s.reopt == nil || !errors.As(err, &trig) {
			if s.reopt != nil {
				e.counts.reoptCheckpoints.Add(int64(s.reopt.Checkpoints()))
			}
			if err == nil {
				s.out = res
			}
			exec.end()
			return err
		}

		s.reopts++
		op := opJoin
		if trig.Cause == "scan" {
			op = opScan
		}
		e.counts.reoptTriggers[op].Add(1)
		if s.hit && s.reopts == 1 {
			e.planCache.Remove(s.cacheKey)
			s.octx = e.optimizerContext(s, nil)
		}
		if s.rec != nil {
			s.rec.Annotations = append(s.rec.Annotations, fmt.Sprintf(
				"reopt: %s est=%.0f act=%.0f qerror=%.1f",
				trig.NodeDesc, trig.EstRows, trig.ActRows, trig.QError))
		}

		start := time.Now()
		replan := phase(s, flightrec.PhaseReoptPlan)
		newPlan, rerr := optimizer.ReOptimize(s.blk, s.octx, s.reopt.Leaves())
		replan.end()
		e.counts.reoptWall.Observe(time.Since(start).Seconds())
		if rerr != nil {
			// Re-planning failed — run the current plan to completion rather
			// than failing a statement whose only problem is a bad estimate.
			if s.rec != nil {
				s.rec.Annotations = append(s.rec.Annotations, fmt.Sprintf(
					"reopt: re-plan #%d failed, continuing current plan: %v", s.reopts, rerr))
			}
			s.reopt.DisableTriggers()
			continue
		}
		s.plan, s.planText = newPlan, ""
	}
}

// mergedActuals combines the scan feedback captured from superseded
// execution attempts with the final attempt's actuals. The two sets are
// disjoint — a subtree whose actuals were captured is materialized in the
// state and never re-executes — so this is a union, sorted back into the
// slot order feedback consumers expect.
func mergedActuals(state *executor.ReoptState, final []executor.ScanActual) []executor.ScanActual {
	if state == nil || len(state.CapturedActuals()) == 0 {
		return final
	}
	out := append(append([]executor.ScanActual(nil), state.CapturedActuals()...), final...)
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}
