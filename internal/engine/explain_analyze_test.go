package engine

import (
	"context"
	"math"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

// wallRe matches the wall-clock attribute of an EXPLAIN ANALYZE annotation.
// Wall times are the one nondeterministic field in the output; golden tests
// normalize them and pin everything else byte-for-byte.
var wallRe = regexp.MustCompile(`wall=[^ )]+`)

func normalizeWall(s string) string { return wallRe.ReplaceAllString(s, "wall=<dur>") }

// TestGoldenExplainAnalyze pins the exact EXPLAIN ANALYZE text (modulo wall
// times) for representative plan shapes at parallelism 1 and 4. Estimated
// columns must stay byte-identical to plain EXPLAIN; actual rows and metered
// units are deterministic because the cost model is simulated. The parallel
// rendering must differ only by the Gather header and indentation — morsel
// execution charges the meter identical totals at any dop.
func TestGoldenExplainAnalyze(t *testing.T) {
	e := seedEngine(t, Config{})
	cases := []struct {
		sql      string
		serial   string
		parallel string
	}{
		{
			sql: `EXPLAIN ANALYZE SELECT id FROM car WHERE make = 'Toyota'`,
			serial: "TableScan car as car filter[make = 'Toyota'] rows=40.0 cost=1008" +
				" (actual rows=600 units=1120 wall=<dur>)\n",
			parallel: "Gather(workers=4)\n" +
				"  TableScan car as car filter[make = 'Toyota'] rows=40.0 cost=1008" +
				" (actual rows=600 units=1120 wall=<dur>)\n",
		},
		{
			sql: `EXPLAIN ANALYZE SELECT c.id, o.city FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`,
			serial: "IndexNLJoin on[[1].id = [0].ownerid] rows=40.0 cost=2416 (actual rows=500 units=7820 wall=<dur>)\n" +
				"  TableScan owner as o filter[city = 'Ottawa'] rows=40.0 cost=1008 (actual rows=100 units=220 wall=<dur>)\n" +
				"  TableScan car as c rows=1000.0 cost=1200\n",
			parallel: "Gather(workers=4)\n" +
				"  IndexNLJoin on[[1].id = [0].ownerid] rows=40.0 cost=2416 (actual rows=500 units=7820 wall=<dur>)\n" +
				"    TableScan owner as o filter[city = 'Ottawa'] rows=40.0 cost=1008 (actual rows=100 units=220 wall=<dur>)\n" +
				"    TableScan car as c rows=1000.0 cost=1200\n",
		},
	}
	for _, c := range cases {
		for _, mode := range []struct {
			dop  int
			want string
		}{{1, c.serial}, {4, c.parallel}} {
			res, err := e.ExecUnboxed(context.Background(), c.sql, ExecOptions{Parallelism: mode.dop})
			if err != nil {
				t.Fatalf("%q at dop %d: %v", c.sql, mode.dop, err)
			}
			if got := normalizeWall(res.Plan); got != mode.want {
				t.Errorf("%q at dop %d:\ngot:\n%s\nwant:\n%s", c.sql, mode.dop, got, mode.want)
			}
			// The result rows carry the same text, one line per row under a
			// "plan" column.
			if len(res.Columns) != 1 || res.Columns[0] != "plan" {
				t.Errorf("columns = %v, want [plan]", res.Columns)
			}
			var lines []string
			for _, r := range res.Out.Rows() {
				lines = append(lines, r[0].Str())
			}
			if got := normalizeWall(strings.Join(lines, "\n") + "\n"); got != mode.want {
				t.Errorf("%q at dop %d: result rows diverge from Plan:\n%s", c.sql, mode.dop, got)
			}
			assertMetricsConsistent(t, c.sql, res.Metrics)
			if res.Metrics.ExecUnits <= 0 {
				t.Errorf("%q: EXPLAIN ANALYZE must report execution units, got %v", c.sql, res.Metrics.ExecUnits)
			}
		}
	}
}

// assertMetricsConsistent checks the unified-Metrics invariant every
// statement path must satisfy: TotalSeconds is exactly the sum of the
// compile and execution splits, and units convert to seconds consistently.
func assertMetricsConsistent(t *testing.T, sql string, m Metrics) {
	t.Helper()
	if diff := math.Abs(m.TotalSeconds - (m.CompileSeconds + m.ExecSeconds)); diff > 1e-12 {
		t.Errorf("%q: TotalSeconds=%v != CompileSeconds+ExecSeconds=%v",
			sql, m.TotalSeconds, m.CompileSeconds+m.ExecSeconds)
	}
	if m.CompileUnits < 0 || m.ExecUnits < 0 {
		t.Errorf("%q: negative units %+v", sql, m)
	}
}

// TestMetricsUnifiedAcrossStatementPaths exercises every statement shape —
// SELECT, EXPLAIN, EXPLAIN ANALYZE, DML — and asserts they all report
// Metrics through the same construction: the EXPLAIN ANALYZE run must charge
// the same execution units as the plain SELECT, plain EXPLAIN must charge
// none, and DML reports execution-only time with the same total invariant.
func TestMetricsUnifiedAcrossStatementPaths(t *testing.T) {
	e := seedEngine(t, Config{})
	const q = `SELECT id FROM car WHERE make = 'Toyota'`

	sel, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	assertMetricsConsistent(t, q, sel.Metrics)

	exp, err := e.Exec(`EXPLAIN ` + q)
	if err != nil {
		t.Fatal(err)
	}
	assertMetricsConsistent(t, "EXPLAIN", exp.Metrics)
	if exp.Metrics.ExecUnits != 0 || exp.Metrics.ExecSeconds != 0 {
		t.Errorf("EXPLAIN reported execution work: %+v", exp.Metrics)
	}

	ana, err := e.Exec(`EXPLAIN ANALYZE ` + q)
	if err != nil {
		t.Fatal(err)
	}
	assertMetricsConsistent(t, "EXPLAIN ANALYZE", ana.Metrics)
	if ana.Metrics.ExecUnits != sel.Metrics.ExecUnits {
		t.Errorf("EXPLAIN ANALYZE exec units %v != SELECT exec units %v",
			ana.Metrics.ExecUnits, sel.Metrics.ExecUnits)
	}

	ins, err := e.Exec(`INSERT INTO car VALUES (20001, 1, 'Lada', 'Niva', 1988, 900.0)`)
	if err != nil {
		t.Fatal(err)
	}
	assertMetricsConsistent(t, "INSERT", ins.Metrics)
	if ins.Metrics.CompileUnits != 0 || ins.Metrics.ExecUnits <= 0 {
		t.Errorf("INSERT metrics %+v, want exec-only work", ins.Metrics)
	}
}

// TestExplainAnalyzeDegradedFlag forces JITS collection to degrade via the
// sample-row budget and asserts the fallback is flagged on the affected
// scan. Tables are collected in name order, so with a one-row budget "car"
// consumes it and "owner" degrades.
func TestExplainAnalyzeDegradedFlag(t *testing.T) {
	e := seedEngine(t, Config{JITS: core.Config{
		Enabled: true, ForceCollect: true, SampleSize: 50, SampleBudgetRows: 1, Seed: 1,
	}})
	res, err := e.Exec(`EXPLAIN ANALYZE SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa' AND c.make = 'Toyota'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prepare == nil || !res.Prepare.Degraded {
		t.Fatalf("expected degraded prepare, got %+v", res.Prepare)
	}
	var ownerLine string
	for _, line := range strings.Split(res.Plan, "\n") {
		if strings.Contains(line, "owner as o") {
			ownerLine = line
		}
	}
	if !strings.Contains(ownerLine, "[degraded: sample-row budget exhausted]") {
		t.Errorf("owner scan not flagged degraded:\n%s", res.Plan)
	}
	if !strings.Contains(ownerLine, "(actual rows=") {
		t.Errorf("owner scan missing actuals:\n%s", res.Plan)
	}
	// car's collection succeeded (it consumed the budget), so its scan must
	// not carry a degradation flag.
	for _, line := range strings.Split(res.Plan, "\n") {
		if strings.Contains(line, "car as c") && strings.Contains(line, "[degraded") {
			t.Errorf("car scan wrongly flagged:\n%s", res.Plan)
		}
	}
}
