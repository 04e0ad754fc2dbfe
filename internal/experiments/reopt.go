package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/workload"
)

// The re-optimization experiment (ISSUE 10): when the optimizer's estimates
// are wrong, is it better to recover mid-query than to finish the bad plan?
// Three modes replay the identical workload stream:
//
//   - catalog: RUNSTATS-style general statistics only, re-optimization off —
//     the static baseline whose independence assumption the workload's
//     correlated predicates break.
//   - jits: just-in-time statistics (the paper's system), re-optimization
//     off — good estimates bought at compile time with sampling.
//   - reopt: the same catalog statistics, plus checkpointed mid-query
//     re-optimization — bad estimates detected and repaired at pipeline
//     breakers, paying a re-planning pass instead of a sampling pass.
//
// Reported seconds are the calibrated simulated work units every experiment
// in this package reports; the terminal q-error is the flight recorder's
// per-statement worst plan-node q-error, i.e. how wrong the plan that
// actually completed still was.

// The reopt mode's re-optimization settings.
const (
	// reoptQErrorThreshold is the checkpoint trigger threshold: more eager
	// than the engine default — the experiment wants to show recovery, not
	// just catastrophe insurance.
	reoptQErrorThreshold = 3
	// reoptMaxReopts caps re-planning attempts per statement.
	reoptMaxReopts = 3
)

// ReoptModeResult is one mode's totals over the workload stream.
type ReoptModeResult struct {
	Mode            string
	Queries         int
	CompileSeconds  float64
	ExecSeconds     float64
	TotalSeconds    float64
	MeanWorstQError float64 // mean over queries of the completed plan's worst q-error
	MaxWorstQError  float64
	Reopts          int // re-planning events (0 unless mode is reopt)
}

// ReoptReport is the experiment outcome, modes in catalog/jits/reopt order.
type ReoptReport struct {
	Modes []ReoptModeResult
}

// Reopt runs the three modes over the identical statement stream and
// reports per-mode totals. Results are cross-checked: every mode must
// return the same row counts the catalog baseline returned (re-optimization
// and statistics choices may change plans, never answers).
func Reopt(opts Options) (*ReoptReport, error) {
	// The flight recorder supplies the terminal q-error, so its ring must
	// hold the whole stream — the dataset DDL, every query and at most two
	// update statements per eight queries — whatever ring the caller asked
	// for: a smaller one averages the tail only.
	opts.FlightRecorder = max(opts.FlightRecorder, 2*opts.Queries+16)

	modes := []struct {
		name  string
		jits  bool
		reopt bool
	}{
		{"catalog", false, false},
		{"jits", true, false},
		{"reopt", false, true},
	}
	rep := &ReoptReport{}
	var baseRows []int
	for _, mode := range modes {
		cfg := engine.Config{}
		if mode.jits {
			cfg.JITS = opts.jitsConfig()
		}
		if mode.reopt {
			cfg.Reopt = engine.ReoptConfig{
				Enabled:         true,
				QErrorThreshold: reoptQErrorThreshold,
				MaxReopts:       reoptMaxReopts,
			}
		}
		e := opts.newEngine(cfg)
		d, err := workload.Load(e, workload.Spec{Scale: opts.Scale, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		if !mode.jits {
			// Catalog statistics for the catalog and reopt modes; the jits
			// mode starts cold and samples, as in the paper's workload runs.
			if err := e.RunstatsAll(); err != nil {
				return nil, err
			}
		}

		res := ReoptModeResult{Mode: mode.name}
		rows := []int{}
		for _, s := range d.Workload(opts.Queries, opts.Seed+1, true) {
			r, err := e.Exec(s.SQL)
			if err != nil {
				return nil, fmt.Errorf("experiments: reopt mode %s, statement %q: %w", mode.name, s.SQL, err)
			}
			if !s.IsQuery {
				continue
			}
			res.Queries++
			res.CompileSeconds += r.Metrics.CompileSeconds
			res.ExecSeconds += r.Metrics.ExecSeconds
			res.TotalSeconds += r.Metrics.TotalSeconds
			res.Reopts += r.Reopts
			rows = append(rows, r.Len())
		}
		if baseRows == nil {
			baseRows = rows
		} else {
			for i := range rows {
				if rows[i] != baseRows[i] {
					return nil, fmt.Errorf("experiments: reopt mode %s query %d returned %d rows, catalog baseline %d",
						mode.name, i, rows[i], baseRows[i])
				}
			}
		}

		// Terminal q-error of each completed SELECT's plan, from the flight
		// recorder. Re-planned statements are judged on the plan that
		// finished — materialized intermediates carry exact cardinalities,
		// so successful recovery shows up as a lower worst q-error.
		n := 0
		for _, rec := range e.Recorder().Last(0) {
			if rec.Kind != "select" || rec.Err != "" {
				continue
			}
			res.MeanWorstQError += rec.WorstQError
			if rec.WorstQError > res.MaxWorstQError {
				res.MaxWorstQError = rec.WorstQError
			}
			n++
		}
		if n > 0 {
			res.MeanWorstQError /= float64(n)
		}
		rep.Modes = append(rep.Modes, res)
	}
	return rep, nil
}
