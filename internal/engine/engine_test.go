package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// seedEngine creates an engine with the car/owner schema and correlated
// data (model determined by make) loaded via SQL.
func seedEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	mustExec(t, e, `CREATE TABLE car (id INT, ownerid INT, make STRING, model STRING, year INT, price FLOAT)`)
	mustExec(t, e, `CREATE TABLE owner (id INT, name STRING, city STRING, country STRING, salary FLOAT)`)
	mustExec(t, e, `CREATE INDEX ix_car_ownerid ON car (ownerid)`)
	mustExec(t, e, `CREATE INDEX ix_owner_id ON owner (id)`)

	pairs := [][2]string{
		{"Toyota", "Camry"}, {"Toyota", "Corolla"}, {"Honda", "Civic"},
		{"BMW", "X5"}, {"Toyota", "Camry"},
	}
	cities := [][2]string{{"Ottawa", "CA"}, {"Toronto", "CA"}, {"Boston", "US"}, {"Ottawa", "CA"}}
	var sb strings.Builder
	sb.WriteString("INSERT INTO owner VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		c := cities[i%len(cities)]
		fmt.Fprintf(&sb, "(%d, 'o%d', '%s', '%s', %d)", i, i, c[0], c[1], 30000+i*100)
	}
	mustExec(t, e, sb.String())
	sb.Reset()
	sb.WriteString("INSERT INTO car VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		p := pairs[i%len(pairs)]
		fmt.Fprintf(&sb, "(%d, %d, '%s', '%s', %d, %d)", i, i%200, p[0], p[1], 1990+i%20, 10000+i*10)
	}
	mustExec(t, e, sb.String())
	return e
}

func mustExec(t testing.TB, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestDDLAndInsert(t *testing.T) {
	e := seedEngine(t, Config{})
	tbl, ok := e.DB().Table("car")
	if !ok || tbl.RowCount() != 1000 {
		t.Fatalf("car rows = %v", tbl.RowCount())
	}
	if _, err := e.Exec(`CREATE TABLE car (id INT)`); err == nil {
		t.Error("duplicate create must fail")
	}
	if _, err := e.Exec(`INSERT INTO ghost VALUES (1)`); err == nil {
		t.Error("insert into missing table must fail")
	}
	if _, err := e.Exec(`INSERT INTO car VALUES (1)`); err == nil {
		t.Error("arity mismatch must fail")
	}
	// Named-column insert with defaults as NULL.
	res := mustExec(t, e, `INSERT INTO car (id, make) VALUES (9999, 'Lada')`)
	if res.RowsAffected != 1 {
		t.Errorf("affected = %d", res.RowsAffected)
	}
	out := mustExec(t, e, `SELECT year FROM car WHERE id = 9999`)
	if len(out.Rows) != 1 || !out.Rows[0][0].IsNull() {
		t.Errorf("defaulted column = %v", out.Rows)
	}
}

func TestSelectEndToEnd(t *testing.T) {
	e := seedEngine(t, Config{})
	res := mustExec(t, e, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	if len(res.Rows) != 400 { // 2 of 5 pattern slots
		t.Errorf("rows = %d, want 400", len(res.Rows))
	}
	if res.Metrics.ExecSeconds <= 0 || res.Metrics.TotalSeconds < res.Metrics.ExecSeconds {
		t.Errorf("metrics = %+v", res.Metrics)
	}
	if !strings.Contains(res.Plan, "car") {
		t.Errorf("plan = %q", res.Plan)
	}
}

func TestUpdateDelete(t *testing.T) {
	e := seedEngine(t, Config{})
	res := mustExec(t, e, `UPDATE car SET price = 1 WHERE make = 'BMW'`)
	if res.RowsAffected != 200 {
		t.Errorf("updated = %d", res.RowsAffected)
	}
	check := mustExec(t, e, `SELECT COUNT(*) FROM car WHERE price = 1`)
	if check.Rows[0][0].Int() != 200 {
		t.Errorf("post-update count = %v", check.Rows[0][0])
	}
	res = mustExec(t, e, `DELETE FROM car WHERE make = 'BMW'`)
	if res.RowsAffected != 200 {
		t.Errorf("deleted = %d", res.RowsAffected)
	}
	tbl, _ := e.DB().Table("car")
	if tbl.RowCount() != 800 {
		t.Errorf("rows = %d", tbl.RowCount())
	}
	// UDI accumulated for the sensitivity analysis.
	if tbl.UDICounter().Total() < 400 {
		t.Errorf("UDI = %+v", tbl.UDICounter())
	}
	if _, err := e.Exec(`UPDATE car SET ghost = 1`); err == nil {
		t.Error("unknown column must fail")
	}
	if _, err := e.Exec(`DELETE FROM car WHERE ghost = 1`); err == nil {
		t.Error("unknown column must fail")
	}
}

// A SET value of the wrong type fails the statement whatever the data: with
// no matching row, with one, with every row — and the table is as it was,
// including the columns assigned before the bad one and the counters
// statistics collection and the plan cache watch.
func TestUpdateTypeErrorDoesNotDependOnData(t *testing.T) {
	e := seedEngine(t, Config{})
	tbl, _ := e.DB().Table("car")
	version, udi := tbl.Snapshot().Version(), tbl.UDICounter()
	var msgs []string
	for _, where := range []string{` WHERE id = -5`, ` WHERE id = 7`, ` WHERE make = 'BMW'`, ``} {
		_, err := e.Exec(`UPDATE car SET price = 1, year = 'x'` + where)
		if err == nil {
			t.Fatalf("UPDATE … SET year = 'x'%s stored a string in an INT column", where)
		}
		msgs = append(msgs, err.Error())
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Errorf("the error depends on the rows matched: %q vs %q", msgs[0], m)
		}
	}
	if tbl.Snapshot().Version() != version || tbl.UDICounter() != udi {
		t.Errorf("failed UPDATEs moved version %d → %d, UDI %+v → %+v", version, tbl.Snapshot().Version(), udi, tbl.UDICounter())
	}
	if res := mustExec(t, e, `SELECT COUNT(*) FROM car WHERE price = 1`); res.Rows[0][0].Int() != 0 {
		t.Errorf("%v rows took the price assigned before the bad value", res.Rows[0][0])
	}
	// What SQL coerces still goes through: an integer into a FLOAT column, NULL anywhere.
	if res := mustExec(t, e, `UPDATE car SET price = 1, year = NULL WHERE id = 7`); res.RowsAffected != 1 {
		t.Errorf("affected = %d", res.RowsAffected)
	}
}

func TestJoinQueryThroughEngine(t *testing.T) {
	e := seedEngine(t, Config{})
	res := mustExec(t, e, `SELECT o.name, c.model FROM car c, owner o
		WHERE c.ownerid = o.id AND o.city = 'Ottawa' AND c.make = 'Toyota'`)
	// Verify against a direct computation.
	want := mustExec(t, e, `SELECT COUNT(*) FROM car c, owner o
		WHERE c.ownerid = o.id AND o.city = 'Ottawa' AND c.make = 'Toyota'`)
	if int64(len(res.Rows)) != want.Rows[0][0].Int() {
		t.Errorf("rows = %d, count = %v", len(res.Rows), want.Rows[0][0])
	}
	if len(res.Rows) == 0 {
		t.Error("join produced nothing")
	}
}

func TestRunstatsAllImprovesEstimates(t *testing.T) {
	e := seedEngine(t, Config{})
	if err := e.RunstatsAll(); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Catalog().TableStats("car"); !ok {
		t.Fatal("no stats after RunstatsAll")
	}
	if _, ok := e.Catalog().TableStats("owner"); !ok {
		t.Fatal("no owner stats")
	}
}

func TestJITSEnabledCollectsAndHelps(t *testing.T) {
	cfg := Config{JITS: core.DefaultConfig()}
	cfg.JITS.ForceCollect = true
	e := seedEngine(t, cfg)
	res := mustExec(t, e, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	if res.Prepare == nil || res.Prepare.CollectedTables() != 1 {
		t.Fatalf("prepare = %+v", res.Prepare)
	}
	if res.Metrics.CompileUnits == 0 {
		t.Error("JITS collection must show up in compile units")
	}
	// The archive now holds materialized statistics.
	if e.JITS().Archive().Histograms() == 0 {
		t.Error("archive empty")
	}
}

func TestFeedbackLoopFillsHistory(t *testing.T) {
	e := seedEngine(t, Config{JITS: core.DefaultConfig()})
	mustExec(t, e, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	if e.Feedback().Len() == 0 {
		t.Error("history empty after query with local predicates")
	}
}

func TestWorkloadStatsBaseline(t *testing.T) {
	e := seedEngine(t, Config{})
	sqls := []string{
		`SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`,
		`SELECT id FROM owner WHERE city = 'Ottawa'`,
		`UPDATE car SET price = 2 WHERE id = 1`, // skipped: not a SELECT
	}
	if err := e.CollectWorkloadStats(sqls); err != nil {
		t.Fatal(err)
	}
	a := e.WorkloadStatsArchive()
	if a == nil || (a.Histograms() == 0 && a.MemoEntries() == 0) {
		t.Fatal("workload stats archive empty")
	}
	// The exact joint selectivity is available to the optimizer: compare
	// estimated rows to actual.
	res := mustExec(t, e, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	scanLine := ""
	for _, line := range strings.Split(res.Plan, "\n") {
		if strings.Contains(line, "car") {
			scanLine = line
		}
	}
	if scanLine == "" {
		t.Fatalf("plan = %q", res.Plan)
	}
	// rows=400 should appear (exact selectivity 0.4 × 1000).
	if !strings.Contains(scanLine, "rows=400") {
		t.Errorf("scan line = %q, want rows=400 from workload stats", scanLine)
	}
}

func TestWorkloadStatsGoStale(t *testing.T) {
	e := seedEngine(t, Config{})
	if err := e.CollectWorkloadStats([]string{`SELECT id FROM car WHERE make = 'Toyota'`}); err != nil {
		t.Fatal(err)
	}
	// Delete all Toyotas: the static archive still claims 60%.
	mustExec(t, e, `DELETE FROM car WHERE make = 'Toyota'`)
	res := mustExec(t, e, `SELECT id FROM car WHERE make = 'Toyota'`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !strings.Contains(res.Plan, "rows=600") {
		t.Errorf("plan = %q, want stale estimate rows=600", res.Plan)
	}
}

func TestMigrateStats(t *testing.T) {
	cfg := Config{JITS: core.DefaultConfig()}
	cfg.JITS.ForceCollect = true
	e := seedEngine(t, cfg)
	mustExec(t, e, `SELECT id FROM car WHERE year > 2000`)
	n := e.MigrateStats()
	if n == 0 {
		t.Fatal("nothing migrated")
	}
	ts, ok := e.Catalog().TableStats("car")
	if !ok || ts.Columns["year"] == nil || ts.Columns["year"].Hist == nil {
		t.Error("migration did not reach the catalog")
	}
}

func TestJITSBeatsNoStatsOnCorrelatedQuery(t *testing.T) {
	// The headline behaviour: with correlated predicates and no statistics,
	// execution work with JITS-collected stats must not exceed the default
	// plan's, and the estimates must be far better.
	runCase := func(jits bool) (execUnits float64, estRows string) {
		cfg := Config{}
		if jits {
			cfg.JITS = core.DefaultConfig()
			cfg.JITS.ForceCollect = true
		}
		e := seedEngine(t, cfg)
		res := mustExec(t, e, `SELECT o.name FROM car c, owner o
			WHERE c.ownerid = o.id AND c.make = 'Toyota' AND c.model = 'Camry' AND o.city = 'Ottawa'`)
		return res.Metrics.ExecUnits, res.Plan
	}
	unitsOff, _ := runCase(false)
	unitsOn, planOn := runCase(true)
	if unitsOn > unitsOff*1.5 {
		t.Errorf("JITS exec units %v much worse than default %v\n%s", unitsOn, unitsOff, planOn)
	}
}

func TestSelectUnknownTableFails(t *testing.T) {
	e := New(Config{})
	if _, err := e.Exec(`SELECT x FROM ghost`); err == nil {
		t.Error("unknown table must fail")
	}
	if _, err := e.Exec(`CREATE INDEX ix ON ghost (x)`); err == nil {
		t.Error("index on unknown table must fail")
	}
}

func TestClockAdvances(t *testing.T) {
	e := seedEngine(t, Config{})
	before := e.Now()
	mustExec(t, e, `SELECT id FROM car LIMIT 1`)
	if e.Now() <= before {
		t.Error("clock did not advance")
	}
}

func TestAggregatesThroughEngine(t *testing.T) {
	e := seedEngine(t, Config{})
	res := mustExec(t, e, `SELECT make, COUNT(*) AS n, AVG(price) FROM car GROUP BY make ORDER BY n DESC`)
	if len(res.Rows) != 3 { // Toyota, Honda, BMW
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if res.Rows[0][0].Str() != "Toyota" || res.Rows[0][1].Int() != 600 {
		t.Errorf("top group = %v", res.Rows[0])
	}
	avg := res.Rows[0][2].Float()
	if math.IsNaN(avg) || avg <= 0 {
		t.Errorf("avg = %v", avg)
	}
}

func TestNullHandlingEndToEnd(t *testing.T) {
	e := New(Config{})
	mustExec(t, e, `CREATE TABLE t (a INT, b STRING)`)
	mustExec(t, e, `INSERT INTO t VALUES (1, 'x'), (NULL, 'y'), (3, NULL)`)
	res := mustExec(t, e, `SELECT a FROM t WHERE a > 0`)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d (NULL must not match)", len(res.Rows))
	}
	res = mustExec(t, e, `SELECT COUNT(*), COUNT(a), COUNT(b) FROM t`)
	r := res.Rows[0]
	if r[0].Int() != 3 || r[1].Int() != 2 || r[2].Int() != 2 {
		t.Errorf("counts = %v", r)
	}
}

func BenchmarkEngineSelectJITS(b *testing.B) {
	cfg := Config{JITS: core.DefaultConfig()}
	e := seedEngine(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(`SELECT o.name FROM car c, owner o WHERE c.ownerid = o.id AND c.make = 'Toyota' AND c.model = 'Camry'`); err != nil {
			b.Fatal(err)
		}
	}
}
