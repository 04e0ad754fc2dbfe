package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/plancache"
)

// SetReopt replaces the engine's re-optimization configuration between
// statements, so a test can cache a plan with re-optimization off and then
// run the cached plan with it armed. No program changes it after New; it is
// not safe while statements run.
func (e *Engine) SetReopt(cfg ReoptConfig) { e.reoptCfg = cfg.withDefaults() }

// ExecAt is ExecUnboxed with this statement executing at degree dop (0 keeps
// the engine's), so one engine can run the same stream serial and parallel.
func (e *Engine) ExecAt(ctx context.Context, sql string, dop int) (*Result, error) {
	if dop == 0 {
		dop = e.parallelism
	}
	return e.execAt(ctx, sql, dop)
}

// SetMigrateEvery arms the statistics-migration module to run after every n
// SELECT statements — the paper's "information in the QSS archive can be
// used to periodically update the system catalog". No program arms it; call
// it before the first statement.
func (e *Engine) SetMigrateEvery(n int) { e.migrateEvery = n }

// WorkloadStatsArchive exposes the static baseline archive (nil unless
// CollectWorkloadStats ran).
func (e *Engine) WorkloadStatsArchive() *core.Archive { return e.staticQSS }

// PlanCache exposes the compiled-plan cache to tests; nil when
// Config.PlanCacheSize is 0.
func (e *Engine) PlanCache() *plancache.Cache { return e.planCache }

// WaitMaintenance returns when the index catch-ups the engine's writes
// started have ended, so a test can see what one did.
func (e *Engine) WaitMaintenance() { e.maintenance.Wait() }
