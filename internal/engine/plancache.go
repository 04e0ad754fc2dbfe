package engine

import (
	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
)

// This file is the engine side of the compiled-plan cache (see
// internal/plancache for the container): what a cache entry holds, and the
// two pipeline stages that touch it — the probe ahead of parsing and the
// store after a successful cold execution.

// cachedPlan is one plan-cache entry: everything execution needs from
// compilation, and the plan's EXPLAIN text rendered once, at the compiling
// statement's dop. Every field is immutable after the compiling statement
// finishes — the executor never mutates the block or the plan tree, and the
// prepare report is read-only — so concurrent sessions may execute the same
// entry simultaneously.
type cachedPlan struct {
	blk  *qgm.Block
	plan optimizer.Node
	prep *core.PrepareReport // JITS decisions of the compiling statement
	text string              // Explain text of plan at dop
	dop  int
}

// probeCache looks the statement up in the plan cache. On a hit it sets s.hit
// and fills the statement's compiled fields from the entry, so parse and
// compile are skipped and everything downstream runs unchanged. Only
// executable SELECTs
// are ever stored, so SHOW/EXPLAIN/DML statements simply miss (their texts
// normalize to keys no store writes). The epoch pins the statistics and data
// state a plan was compiled against; it is read here, once, for cached and
// uncached engines alike.
func (e *Engine) probeCache(s *statement) {
	s.epoch = e.archiveEpoch.Load()
	if e.planCache == nil {
		return
	}
	key, err := sqlparser.Normalize(s.sql)
	if err != nil {
		return
	}
	s.cacheKey = key
	v, ok := e.planCache.Get(key, s.epoch)
	if !ok {
		return
	}
	ent := v.(*cachedPlan)
	s.hit, s.blk, s.plan, s.prep = true, ent.blk, ent.plan, ent.prep
	if ent.dop == s.dop {
		s.planText = ent.text
	}
}

// cachePlan stores a freshly compiled plan for reuse at the statement's
// epoch. Statements with IN-subqueries are excluded: semi-join lowering
// folded the *executed* inner result into the outer block's predicates, so
// their plan embeds data, not just shape, and must be recompiled per
// execution. Re-optimized statements are excluded too: the completed plan
// embeds Materialized leaves that resolve against this statement's
// checkpoint state, and the superseded original plan was just proven wrong —
// caching either would poison the cache. The plan's text is rendered here,
// once, for this statement's result and every hit at the same dop.
func (e *Engine) cachePlan(s *statement) {
	if s.hit || s.mode != modeExecute || s.cacheKey == "" || len(s.blk.SemiJoins) > 0 || s.reopts > 0 {
		return
	}
	s.planText = s.renderPlan(nil)
	e.planCache.Put(s.cacheKey, s.epoch, &cachedPlan{blk: s.blk, plan: s.plan, prep: s.prep, text: s.planText, dop: s.dop})
}
