package engine_test

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// Mid-query re-optimization differentials. The robustness contract: a
// statement that re-planned mid-flight returns exactly the rows it would
// have returned without re-optimization — only the join order and operator
// choices of unexecuted nodes may change. Equivalence is plan-independent,
// like the chaos harness: row multisets with floats rounded (different join
// orders associate float partial sums differently), counts only for
// LIMIT-without-ORDER-BY queries whose row identity is plan-dependent (the
// engine exempts those from re-optimization, but their *baseline* rows
// already differ across dop, so the comparison stays count-based).

func mkReoptEngine(t testing.TB, dop int, reopt bool) (*engine.Engine, *workload.Dataset) {
	t.Helper()
	cfg := engine.Config{Parallelism: dop}
	cfg.JITS.Enabled = true
	cfg.JITS.SMax = 0.5
	cfg.JITS.SampleSize = 800
	cfg.JITS.Seed = 7
	e := engine.New(cfg)
	if reopt {
		// Re-plan on any q-error above 1.5 — far below the engine's
		// threshold, so the differential exercises many re-planning paths
		// rather than the rare catastrophic ones.
		e.SetReopt(1.5, 3)
	}
	d, err := workload.Load(e, workload.Spec{Scale: 0.004, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

const (
	reoptDiffStmts = 220
	reoptDiffSeed  = 99
)

func TestReoptDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replay is slow")
	}
	faultinject.Reset()

	// Serial fault-free baseline, re-optimization off.
	eBase, dBase := mkReoptEngine(t, 1, false)
	stmts := dBase.Workload(reoptDiffStmts, reoptDiffSeed, true)
	type outcome struct {
		countOnly bool
		rows      int
		affected  int
		fp        string
	}
	base := make([]outcome, len(stmts))
	for i, st := range stmts {
		res, err := eBase.Exec(st.SQL)
		if err != nil {
			t.Fatalf("baseline stmt %d %q: %v", i, st.SQL, err)
		}
		base[i] = outcome{countOnly: limitWithoutOrderBy(st.SQL)}
		if st.IsQuery {
			base[i].rows = len(res.Rows)
			base[i].fp = fingerprintRows(res)
		} else {
			base[i].affected = res.RowsAffected
		}
	}

	arms := []struct {
		name  string
		dop   int
		reopt bool
	}{
		{"reopt_dop1", 1, true},
		{"off_dop4", 4, false},
		{"reopt_dop4", 4, true},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			e, d := mkReoptEngine(t, arm.dop, arm.reopt)
			totalReopts := 0
			for i, st := range d.Workload(reoptDiffStmts, reoptDiffSeed, true) {
				res, err := e.Exec(st.SQL)
				if err != nil {
					t.Fatalf("stmt %d %q: %v", i, st.SQL, err)
				}
				totalReopts += res.Reopts
				b := base[i]
				if !st.IsQuery {
					if res.RowsAffected != b.affected {
						t.Fatalf("stmt %d %q: affected %d, baseline %d", i, st.SQL, res.RowsAffected, b.affected)
					}
					continue
				}
				if b.countOnly {
					if len(res.Rows) != b.rows {
						t.Fatalf("stmt %d %q: %d rows, baseline %d", i, st.SQL, len(res.Rows), b.rows)
					}
					if res.Reopts != 0 {
						t.Fatalf("stmt %d %q: LIMIT-without-ORDER-BY statement re-optimized (%d)", i, st.SQL, res.Reopts)
					}
					continue
				}
				if got := fingerprintRows(res); got != b.fp {
					t.Fatalf("stmt %d %q (reopts=%d): rows diverged from baseline\ngot:\n%s\nwant:\n%s",
						i, st.SQL, res.Reopts, got, b.fp)
				}
			}
			if arm.reopt && totalReopts == 0 {
				t.Fatal("no statement re-optimized at threshold 1.5 — the differential tested nothing")
			}
			if !arm.reopt && totalReopts != 0 {
				t.Fatalf("re-optimization disabled but %d reopts reported", totalReopts)
			}
			t.Logf("%s: %d re-optimizations over %d statements", arm.name, totalReopts, reoptDiffStmts)
		})
	}
}

// TestChaosMisestimateReopt is the forced-misestimate chaos pass: the
// estimator.misestimate fault skews every scan and join estimate by 16x on
// a seeded schedule, re-optimization is armed at the production threshold,
// and every statement must still produce exactly the fault-free baseline's
// results — the injected estimates are wrong, the answers never are. The
// schedule is dense enough that checkpoints both trigger re-plans and
// survive them.
func TestChaosMisestimateReopt(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is slow")
	}
	base := baselineOutcomes(t)
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	e, d := mkChaosEngine(t)
	e.SetReopt(10, 2) // catastrophe insurance: only a tenfold misestimate re-plans
	if err := faultinject.Arm(faultinject.EstimatorMisestimate, faultinject.SeedSpec(chaosSeed, 2)); err != nil {
		t.Fatal(err)
	}
	totalReopts := 0
	for i, st := range d.Workload(chaosStmts, chaosSeed, true) {
		res, err := e.Exec(st.SQL)
		if err != nil {
			t.Fatalf("stmt %d %q: failed under misestimate chaos: %v", i, st.SQL, err)
		}
		totalReopts += res.Reopts
		b := base[i]
		if b.failed {
			continue
		}
		if !st.IsQuery {
			if res.RowsAffected != b.affected {
				t.Fatalf("stmt %d %q: affected %d, fault-free run affected %d", i, st.SQL, res.RowsAffected, b.affected)
			}
			continue
		}
		if b.countOnly {
			if len(res.Rows) != b.rows {
				t.Fatalf("stmt %d %q: %d rows, fault-free run %d", i, st.SQL, len(res.Rows), b.rows)
			}
			continue
		}
		if got := fingerprintRows(res); got != b.fp {
			t.Fatalf("stmt %d %q (reopts=%d): rows diverged from the fault-free run\ngot:\n%s\nwant:\n%s",
				i, st.SQL, res.Reopts, got, b.fp)
		}
	}
	if fired := faultinject.Fired(faultinject.EstimatorMisestimate); fired == 0 {
		t.Fatal("estimator.misestimate never fired — the probe schedule tested nothing")
	}
	if totalReopts == 0 {
		t.Fatal("no statement re-optimized although estimates were skewed 16x")
	}
	faultinject.Reset()
	if _, err := e.Exec(`SELECT COUNT(*) FROM car`); err != nil {
		t.Fatalf("engine unusable after misestimate chaos: %v", err)
	}
	t.Logf("misestimate chaos: %d re-optimizations over %d statements", totalReopts, chaosStmts)
}

// TestReoptPlanCacheCanary is the stale-plan canary (mirroring the PR 6
// epoch canary): a cached plan that triggers mid-query re-optimization must
// not serve the next execution — the trigger evicts it, the re-planned
// statement is never cached, and a recompile follows. The flight recorder is
// on so every execution's record can be held to the Result the caller got:
// a hit that re-plans does compile work, and the record must say so.
func TestReoptPlanCacheCanary(t *testing.T) {
	faultinject.Reset()
	cfg := engine.Config{PlanCacheSize: 16, FlightRecorderCapacity: 64}
	e := engine.New(cfg)
	if _, err := workload.Load(e, workload.Spec{Scale: 0.004, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	// Catalog statistics only: the correlated make/model pair breaks the
	// independence assumption, so the car scan's estimate is far below its
	// actual — a guaranteed trigger once re-optimization is armed.
	if err := e.RunstatsAll(); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT COUNT(*) FROM car c, owner o, demographics d WHERE c.ownerid = o.id AND d.ownerid = o.id AND c.make = 'Honda' AND c.model = 'Civic'`

	// Warm: compile and cache with re-optimization off.
	warm, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if warm.PlanCacheHit {
		t.Fatal("first execution reported a cache hit")
	}
	hit, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.PlanCacheHit {
		t.Fatal("second execution missed the cache — no cached plan to canary")
	}

	// Arm re-optimization; the next hit executes the (now provably bad)
	// cached plan, triggers, and must evict the entry.
	e.SetReopt(2, 2)
	trig, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !trig.PlanCacheHit {
		t.Fatal("third execution should have hit the cache (entry compiled pre-reopt)")
	}
	if trig.Reopts == 0 {
		t.Fatal("cached correlated-join plan did not trigger re-optimization")
	}
	if !strings.Contains(trig.Plan, "Materialized#") {
		t.Fatalf("re-planned statement's plan shows no Materialized leaf:\n%s", trig.Plan)
	}

	// The canary: the superseded plan must be gone — the next execution
	// recompiles instead of re-walking the same trap.
	after, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.PlanCacheHit {
		t.Fatal("stale plan served after a re-optimization trigger — cache was poisoned")
	}

	// Identical answers throughout, and each execution's flight record
	// reports the same simulated split as its Result.
	if trig.Metrics.CompileSeconds == 0 {
		t.Fatal("re-planning a cached statement accrued no compile cost")
	}
	want := fingerprintRows(warm)
	recs := e.Recorder().Last(4)
	for i, run := range []struct {
		name string
		res  *engine.Result
	}{{"warm", warm}, {"hit", hit}, {"trigger", trig}, {"after", after}} {
		if got := fingerprintRows(run.res); got != want {
			t.Fatalf("%s execution diverged:\ngot:\n%s\nwant:\n%s", run.name, got, want)
		}
		rec := recs[i]
		if rec.CompileSeconds != run.res.Metrics.CompileSeconds || rec.ExecSeconds != run.res.Metrics.ExecSeconds {
			t.Errorf("%s execution: flight record compile_s=%v exec_s=%v, Result reports %v / %v",
				run.name, rec.CompileSeconds, rec.ExecSeconds, run.res.Metrics.CompileSeconds, run.res.Metrics.ExecSeconds)
		}
		if rec.PlanCacheHit != run.res.PlanCacheHit {
			t.Errorf("%s execution: flight record plan_cache_hit=%v, Result reports %v", run.name, rec.PlanCacheHit, run.res.PlanCacheHit)
		}
	}
}

// TestReoptShowQueries checks the introspection surface: SHOW QUERIES
// carries a reopts column and re-optimized statements report a nonzero
// count there.
func TestReoptShowQueries(t *testing.T) {
	faultinject.Reset()
	e := engine.New(engine.Config{FlightRecorderCapacity: 64})
	e.SetReopt(2, 2)
	if _, err := workload.Load(e, workload.Spec{Scale: 0.004, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunstatsAll(); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND c.make = 'Honda' AND c.model = 'Civic'`
	res, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopts == 0 {
		t.Fatal("correlated-join statement did not re-optimize")
	}
	show, err := e.Exec(`SHOW QUERIES`)
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, c := range show.Columns {
		if c == "reopts" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("SHOW QUERIES has no reopts column: %v", show.Columns)
	}
	found := false
	for _, row := range show.Rows {
		if row[col].Int() > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no SHOW QUERIES row reports a nonzero reopts count")
	}
}
