package experiments

import (
	"sort"

	"repro/internal/accuracy"
	"repro/internal/engine"
	"repro/internal/workload"
)

// The drift experiment (ROADMAP: "drifting-workload scenario"): warm a JITS
// engine until the archive holds statistics for every predicate group, then
// freeze collection (s_max = 1, the paper's never-collect setting — the
// stand-in for a static RUNSTATS-style catalog) and shift the data
// distribution of exactly one table with a massive city-boom UPDATE. The
// replayed workload now estimates from stale histograms; the accuracy
// ledger's CUSUM detector must flag the shifted table's statistics as
// drifted while every untouched table stays out of the drifted set.
//
// Everything is deterministic — seeded data, seeded queries, and a ledger
// clocked by the engine's logical ticks — so the drifted-table set is a
// stable assertion, not a tendency (TestDriftQuick pins it).

// driftShiftFraction is the fraction of owner rows the city boom relocates.
const driftShiftFraction = 0.5

// DriftStatRow is one ledger row sampled at a phase boundary — the CSV the
// experiment commits is these rows for both phases.
type DriftStatRow struct {
	Phase        string // "warm" (pre-shift) or "shifted" (end of run)
	Stat         string // column-group key, e.g. "owner(city)"
	Table        string
	State        string // fresh | aging | drifted
	Observations uint64
	EWMAQError   float64
	CUSUM        float64
	ChurnRows    int64
}

// DriftReport is the drift experiment's outcome.
type DriftReport struct {
	Rows []DriftStatRow
	// DriftedTables are the distinct tables owning at least one drifted
	// statistic at the end of the run, sorted.
	DriftedTables []string
	// ShiftedTable is the table the experiment actually shifted.
	ShiftedTable string
	// ShiftSQL is the mid-run distribution shift that was applied.
	ShiftSQL string
}

// Drift runs the drifting-workload experiment and reports the ledger's
// verdict. The warm phase runs with s_max = 0 (collect everything) so the
// archive — and therefore the ledger — tracks every predicate group the
// workload exercises before the freeze. Half of opts.Queries run before the
// shift and the other half after it.
func Drift(opts Options) (*DriftReport, error) {
	cfg := engine.Config{
		JITS:        opts.jitsConfig(),
		Parallelism: opts.Parallelism,
		Trace:       opts.Trace,
		Accuracy:    accuracy.DefaultConfig(),
	}
	cfg.JITS.SMax = 0 // warm phase: archive every exercised predicate group
	e := opts.newEngine(cfg)
	d, err := workload.Load(e, workload.Spec{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}

	run := func(stmts []workload.Statement) error {
		for _, s := range stmts {
			if _, err := e.Exec(s.SQL); err != nil {
				return err
			}
		}
		return nil
	}

	// Phase 1 — warm: collection on, estimates track, everything fresh.
	if err := run(d.Queries(opts.Queries/2, opts.Seed)); err != nil {
		return nil, err
	}
	rep := &DriftReport{ShiftedTable: "owner"}
	rep.Rows = appendDriftRows(rep.Rows, "warm", e)

	// Freeze collection: from here the engine estimates from the archive
	// alone, exactly like a catalog whose RUNSTATS never reran.
	e.JITS().SetSMax(1)

	// The shift: relocate half the owner table. The UPDATE's churn is the
	// ledger's first signal (fresh → aging); the stale estimates that
	// follow are the second (→ drifted).
	shift := d.CityBoom(driftShiftFraction)
	rep.ShiftSQL = shift.SQL
	if _, err := e.Exec(shift.SQL); err != nil {
		return nil, err
	}

	// Phase 2 — replay against stale statistics. A different query seed
	// keeps constants varied; the templates are identical.
	if err := run(d.Queries(opts.Queries-opts.Queries/2, opts.Seed+1)); err != nil {
		return nil, err
	}
	rep.Rows = appendDriftRows(rep.Rows, "shifted", e)

	drifted := map[string]bool{}
	for _, s := range e.Accuracy().Drifted() {
		drifted[s.Table] = true
	}
	for t := range drifted {
		rep.DriftedTables = append(rep.DriftedTables, t)
	}
	sort.Strings(rep.DriftedTables)
	return rep, nil
}

func appendDriftRows(rows []DriftStatRow, phase string, e *engine.Engine) []DriftStatRow {
	for _, s := range e.Accuracy().Snapshot("") {
		rows = append(rows, DriftStatRow{
			Phase:        phase,
			Stat:         s.Key,
			Table:        s.Table,
			State:        s.State,
			Observations: s.Observations,
			EWMAQError:   s.EWMAQError,
			CUSUM:        s.CUSUM,
			ChurnRows:    s.ChurnSinceMerge,
		})
	}
	return rows
}
