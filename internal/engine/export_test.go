package engine

// SetReopt replaces the engine's re-optimization configuration between
// statements, so a test can cache a plan with re-optimization off and then
// run the cached plan with it armed. No program changes it after New; it is
// not safe while statements run.
func (e *Engine) SetReopt(cfg ReoptConfig) { e.reoptCfg = cfg.withDefaults() }
