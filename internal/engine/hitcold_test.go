package engine_test

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// TestPlanCacheHitEqualsCold pins the pipeline's central claim: a plan-cache
// hit is the cold path with the compile stage skipped. Each paper-workload
// SELECT runs cold and then again as a hit, and everything execution and
// observation produce must be identical — rows, plan, metered execution
// units, and the flight record's operators, sampled tables, error factors,
// worst q-error and degradation flag. Only the hit flag, the compile cost and
// wall-clock phase timings may differ.
func TestPlanCacheHitEqualsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("workload replay is slow")
	}
	faultinject.Reset()
	const minPairs = 40
	for _, dop := range []int{1, 4} {
		for _, reopt := range []bool{false, true} {
			t.Run(fmt.Sprintf("dop%d_reopt%v", dop, reopt), func(t *testing.T) {
				cfg := engine.Config{Parallelism: dop, PlanCacheSize: 256, FlightRecorderCapacity: 8}
				cfg.JITS.Enabled = true
				cfg.JITS.SMax = 0.5
				cfg.JITS.SampleSize = 800
				cfg.JITS.Seed = 7
				e := engine.New(cfg)
				if reopt {
					e.SetReopt(10, 2) // only a tenfold misestimate re-plans
				}
				d, err := workload.Load(e, workload.Spec{Scale: 0.004, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				pairs := 0
				seen := make(map[string]bool)
				for i, q := range d.Queries(64, 11) {
					if seen[q.SQL] {
						continue // its first run would already be a hit
					}
					seen[q.SQL] = true
					cold, err := e.Exec(q.SQL)
					if err != nil {
						t.Fatalf("query %d %q cold: %v", i, q.SQL, err)
					}
					coldRec := e.Recorder().Last(1)[0]
					warm, err := e.Exec(q.SQL)
					if err != nil {
						t.Fatalf("query %d %q repeat: %v", i, q.SQL, err)
					}
					warmRec := e.Recorder().Last(1)[0]
					if cold.PlanCacheHit || coldRec.PlanCacheHit {
						t.Fatalf("query %d %q: first execution reported a hit", i, q.SQL)
					}
					if cold.Reopts > 0 {
						// A re-optimized statement is never cached.
						if warm.PlanCacheHit {
							t.Fatalf("query %d %q: re-optimized statement was served from the cache", i, q.SQL)
						}
						continue
					}
					if !warm.PlanCacheHit || !warmRec.PlanCacheHit {
						t.Fatalf("query %d %q: repeat missed the cache (result %v, record %v)", i, q.SQL, warm.PlanCacheHit, warmRec.PlanCacheHit)
					}
					pairs++
					if warm.Metrics.CompileUnits != 0 {
						t.Errorf("query %d %q: hit charged %v compile units", i, q.SQL, warm.Metrics.CompileUnits)
					}
					for _, c := range []struct {
						what      string
						cold, hit any
					}{
						{"columns", cold.Columns, warm.Columns},
						{"rows", cold.Rows, warm.Rows},
						{"plan", cold.Plan, warm.Plan},
						{"exec units", cold.Metrics.ExecUnits, warm.Metrics.ExecUnits},
						{"prepare report", cold.Prepare, warm.Prepare},
						{"reopts", cold.Reopts, warm.Reopts},
						{"record operators", coldRec.Operators, warmRec.Operators},
						{"record tables", coldRec.Tables, warmRec.Tables},
						{"record feedback", coldRec.Feedback, warmRec.Feedback},
						{"record worst q-error", coldRec.WorstQError, warmRec.WorstQError},
						{"record degraded", coldRec.Degraded, warmRec.Degraded},
						{"record degrade causes", coldRec.DegradeCauses, warmRec.DegradeCauses},
						{"record exec seconds", coldRec.ExecSeconds, warmRec.ExecSeconds},
						{"record rows", coldRec.Rows, warmRec.Rows},
					} {
						if !reflect.DeepEqual(c.cold, c.hit) {
							t.Errorf("query %d %q: %s differ between cold and hit\ncold: %v\nhit:  %v", i, q.SQL, c.what, c.cold, c.hit)
						}
					}
					if len(coldRec.Operators) == 0 || len(coldRec.Tables) == 0 {
						t.Fatalf("query %d %q: cold record captured no operators/tables — the comparison tested nothing", i, q.SQL)
					}
				}
				if pairs < minPairs {
					t.Fatalf("only %d cold/hit pairs compared, want at least %d", pairs, minPairs)
				}
			})
		}
	}
}

// actuals matches the EXPLAIN ANALYZE annotation at the end of a plan line.
var actuals = regexp.MustCompile(`(?m) \(actual rows=[^)]*\)( \[[^\]]*\])?$`)

// TestPlanCacheHitReoptReportsCompletedPlan: a hit whose cached plan triggers
// re-optimization reports the completed plan — the text of the plan that
// actually ran, Materialized leaves included — not the entry's text, and so
// does its flight record.
func TestPlanCacheHitReoptReportsCompletedPlan(t *testing.T) {
	faultinject.Reset()
	e := engine.New(engine.Config{PlanCacheSize: 16, FlightRecorderCapacity: 8})
	if _, err := workload.Load(e, workload.Spec{Scale: 0.004, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunstatsAll(); err != nil {
		t.Fatal(err)
	}
	// Catalog statistics miss the make/model correlation: the cached plan's
	// car estimate is far below its actual once re-optimization is armed.
	const q = `SELECT COUNT(*) FROM car c, owner o, demographics d WHERE c.ownerid = o.id AND d.ownerid = o.id AND c.make = 'Honda' AND c.model = 'Civic'`
	var hit *engine.Result
	for range 2 {
		var err error
		if hit, err = e.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if !hit.PlanCacheHit {
		t.Fatal("repeat missed the cache")
	}
	e.SetReopt(2, 2)
	trig, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !trig.PlanCacheHit || trig.Reopts == 0 {
		t.Fatalf("want a hit that re-optimizes; hit %v, reopts %d", trig.PlanCacheHit, trig.Reopts)
	}
	if trig.Plan == hit.Plan || !strings.Contains(trig.Plan, "Materialized#") {
		t.Fatalf("re-optimized hit reported the cached plan:\n%s", trig.Plan)
	}
	if recorded := actuals.ReplaceAllString(e.Recorder().Last(1)[0].Plan, ""); recorded != trig.Plan {
		t.Errorf("result plan\n%s\nflight record's plan without actuals\n%s", trig.Plan, recorded)
	}
}
