package engine

import "repro/internal/plancache"

// SetReopt arms re-optimization between statements with its own q-error
// threshold and per-statement cap, so a test can cache a plan with
// re-optimization off and then run the cached plan with it armed, or hold
// the loop to a trigger other than the engine's. No program changes it
// after New; it is not safe while statements run.
func (e *Engine) SetReopt(qErrorThreshold float64, maxReopts int) {
	e.reopt, e.reoptQError, e.maxReopts = true, qErrorThreshold, maxReopts
}

// PlanCache exposes the compiled-plan cache to tests; nil when
// Config.PlanCacheSize is 0.
func (e *Engine) PlanCache() *plancache.Cache { return e.planCache }

// WaitMaintenance returns when the index catch-ups the engine's writes
// started have ended, so a test can see what one did.
func (e *Engine) WaitMaintenance() { e.maintenance.Wait() }

// CatchUpsRunning returns how many index catch-up goroutines are running.
func (e *Engine) CatchUpsRunning() int {
	e.catchUps.mu.Lock()
	defer e.catchUps.mu.Unlock()
	return e.catchUps.running
}
