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
// compilation, and the plan's EXPLAIN text rendered once, at the engine's
// degree. Every field is immutable after the compiling statement
// finishes — the executor never mutates the block or the plan tree, and the
// prepare report is read-only — so concurrent sessions may execute the same
// entry simultaneously.
type cachedPlan struct {
	blk  *qgm.Block
	plan optimizer.Node
	prep *core.PrepareReport // JITS decisions of the compiling statement
	text string              // Explain text of plan
}

// probeCache looks the statement up in the plan cache. Only executable
// SELECTs are ever stored, so only a text that starts with SELECT is probed:
// it is lexed once into s.lexed, which writes the probe's key and keeps the
// tokens parse reads on a miss; any other statement is neither lexed here
// nor counted as a miss. On a hit it sets s.hit and fills the statement's compiled
// fields from the entry, so parse and compile are skipped and everything
// downstream runs unchanged. The epoch pins the statistics and data state a
// plan was compiled against; it is read here, once, for cached and uncached
// engines alike.
func (e *Engine) probeCache(s *statement) {
	s.epoch = e.archiveEpoch.Load()
	if e.planCache == nil {
		return
	}
	key, ok := s.lexed.LexSelect(s.sql)
	if !ok {
		return
	}
	s.cacheKey = key
	v, ok := e.planCache.Get(key, s.epoch)
	if !ok {
		return
	}
	ent := v.(*cachedPlan)
	s.hit, s.blk, s.plan, s.prep, s.planText = true, ent.blk, ent.plan, ent.prep, ent.text
}

// parse parses the statement's text, through s.lexed when probeCache
// lexed it.
func (s *statement) parse() (sqlparser.Statement, error) {
	if s.cacheKey != "" {
		return s.lexed.Parse()
	}
	return sqlparser.Parse(s.sql)
}

// cachePlan stores a freshly compiled plan for reuse at the statement's
// epoch. Statements with IN-subqueries are excluded: semi-join lowering
// folded the *executed* inner result into the outer block's predicates, so
// their plan embeds data, not just shape, and must be recompiled per
// execution. Re-optimized statements are excluded too: the completed plan
// embeds Materialized leaves that resolve against this statement's
// checkpoint state, and the superseded original plan was just proven wrong —
// caching either would poison the cache. The plan's text is rendered here,
// once, for this statement's result and every hit.
func (e *Engine) cachePlan(s *statement) {
	if s.hit || s.mode != modeExecute || s.cacheKey == "" || len(s.blk.SemiJoins) > 0 || s.reopts > 0 {
		return
	}
	s.planText = e.renderPlan(s, nil)
	e.planCache.Put(s.cacheKey, s.epoch, &cachedPlan{blk: s.blk, plan: s.plan, prep: s.prep, text: s.planText})
}
