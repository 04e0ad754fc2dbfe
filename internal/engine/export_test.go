package engine

import (
	"repro/internal/core"
	"repro/internal/plancache"
)

// SetReopt replaces the engine's re-optimization configuration between
// statements, so a test can cache a plan with re-optimization off and then
// run the cached plan with it armed. No program changes it after New; it is
// not safe while statements run.
func (e *Engine) SetReopt(cfg ReoptConfig) { e.reoptCfg = cfg.withDefaults() }

// WorkloadStatsArchive exposes the static baseline archive (nil unless
// CollectWorkloadStats ran).
func (e *Engine) WorkloadStatsArchive() *core.Archive { return e.staticQSS }

// PlanCache exposes the compiled-plan cache to tests; nil when
// Config.PlanCacheSize is 0.
func (e *Engine) PlanCache() *plancache.Cache { return e.planCache }
