package engine

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestExplainCompilesWithoutExecuting(t *testing.T) {
	e := seedEngine(t, Config{})
	res := mustExec(t, e, `EXPLAIN SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`)
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no plan rows")
	}
	joined := res.Plan
	for _, want := range []string{"Join", "car", "owner"} {
		if !strings.Contains(joined, want) {
			t.Errorf("plan missing %q:\n%s", want, joined)
		}
	}
	if res.Metrics.ExecSeconds != 0 {
		t.Errorf("EXPLAIN must not execute: exec = %v", res.Metrics.ExecSeconds)
	}
	if res.Metrics.CompileSeconds <= 0 {
		t.Errorf("EXPLAIN must charge compilation: %v", res.Metrics.CompileSeconds)
	}
}

func TestExplainRunsJITSCollection(t *testing.T) {
	cfg := Config{JITS: core.DefaultConfig()}
	cfg.JITS.ForceCollect = true
	e := seedEngine(t, cfg)
	res := mustExec(t, e, `EXPLAIN SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	if res.Prepare == nil || res.Prepare.CollectedTables() != 1 {
		t.Fatalf("prepare = %+v", res.Prepare)
	}
	// The plan must reflect the collected joint selectivity (≈400 rows).
	if !strings.Contains(res.Plan, "rows=400") {
		t.Errorf("plan = %q, want rows=400 from JITS stats", res.Plan)
	}
}

func TestExplainSyntaxErrors(t *testing.T) {
	e := seedEngine(t, Config{})
	if _, err := e.Exec(`EXPLAIN UPDATE car SET price = 1`); err == nil {
		t.Error("EXPLAIN of DML must fail (only SELECT is supported)")
	}
	if _, err := e.Exec(`EXPLAIN`); err == nil {
		t.Error("bare EXPLAIN must fail")
	}
}

// TestOLTPPointLookupOverhead reproduces the paper's §3.5 applicability
// caveat: on a simple indexed point lookup, forced JITS collection costs
// more than the entire execution — "using such architecture can increase
// the time of query processing if all the queries are very simple".
func TestOLTPPointLookupOverhead(t *testing.T) {
	cfg := Config{JITS: core.DefaultConfig()}
	cfg.JITS.ForceCollect = true
	e := seedEngine(t, cfg)
	mustExec(t, e, `CREATE INDEX ix_car_id ON car (id)`)
	res := mustExec(t, e, `SELECT make FROM car WHERE id = 123`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Metrics.CompileSeconds <= res.Metrics.ExecSeconds {
		t.Errorf("point lookup: collection overhead (%v) should dominate execution (%v)",
			res.Metrics.CompileSeconds, res.Metrics.ExecSeconds)
	}
	// With the sensitivity analysis on instead, repeated identical lookups
	// stop collecting — the overhead is a first-query cost.
	cfg2 := Config{JITS: core.DefaultConfig()}
	e2 := seedEngine(t, cfg2)
	mustExec(t, e2, `CREATE INDEX ix_car_id ON car (id)`)
	var lastCompile float64
	for i := 0; i < 4; i++ {
		r := mustExec(t, e2, `SELECT make FROM car WHERE id = 123`)
		lastCompile = r.Metrics.CompileSeconds
	}
	first := mustExec(t, e2, `SELECT make FROM car WHERE id = 124`) // same colgrp
	_ = first
	if lastCompile > 0.001 {
		t.Errorf("sensitivity analysis should stop collecting on repeated lookups: compile = %v", lastCompile)
	}
}

func TestPerGroupSamplingCharges(t *testing.T) {
	base := Config{JITS: core.DefaultConfig()}
	base.JITS.ForceCollect = true
	eff := seedEngine(t, base)

	naive := base
	naive.JITS.PerGroupSampling = true
	pg := seedEngine(t, naive)

	q := `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry' AND year > 2000`
	r1 := mustExec(t, eff, q)
	r2 := mustExec(t, pg, q)
	// 3 predicates → 7 candidate groups: per-group sampling charges ≈7× the
	// sampling cost of the shared pass.
	if !(r2.Metrics.CompileSeconds > r1.Metrics.CompileSeconds*3) {
		t.Errorf("per-group sampling compile %v should far exceed shared-pass %v",
			r2.Metrics.CompileSeconds, r1.Metrics.CompileSeconds)
	}
	// Identical statistics → identical plan and execution.
	if r1.Plan != r2.Plan {
		t.Errorf("plans differ:\n%s\nvs\n%s", r1.Plan, r2.Plan)
	}
}

// TestTraceOutput: a traced statement's line carries the JITS decision on
// car with the s1/s2 scores it was made on, and the feedback observed on
// car(make,model).
func TestTraceOutput(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{JITS: core.DefaultConfig(), Trace: &buf}
	e := seedEngine(t, cfg)
	buf.Reset()
	res := mustExec(t, e, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	recs, _ := traceRecords(t, buf.Bytes())
	if len(recs) != 1 || len(recs[0].Tables) != 1 || len(res.Prepare.Tables) != 1 {
		t.Fatalf("want one record deciding one table, got %+v", recs)
	}
	car, want := recs[0].Tables[0], res.Prepare.Tables[0]
	if car.Table != "car" || !car.Collected || car.S1 != want.Scores.S1 || car.S2 != want.Scores.S2 || car.S1+car.S2 == 0 {
		t.Errorf("car decision %+v, want collected on s1=%v s2=%v", car, want.Scores.S1, want.Scores.S2)
	}
	if car.SampleRows == 0 || car.GroupsEvaluated == 0 || car.Draw <= 0 || car.Materialize <= 0 {
		t.Errorf("car sample %+v: want rows, groups and laps", car)
	}
	found := false
	for _, fb := range recs[0].Feedback {
		found = found || (fb.Stat == "car(make,model)" && fb.ErrorFactor > 0 && fb.ActualSel > 0)
	}
	if !found {
		t.Errorf("no feedback on car(make,model): %+v", recs[0].Feedback)
	}
}
