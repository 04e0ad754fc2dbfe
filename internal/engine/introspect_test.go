package engine

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flightrec"
)

// recorderEngine is seedEngine with the flight recorder on at default
// capacity and JITS enabled, the configuration the introspection statements
// are most interesting under.
func recorderEngine(t testing.TB) *Engine {
	t.Helper()
	cfg := Config{FlightRecorderCapacity: -1}
	cfg.JITS = core.DefaultConfig()
	cfg.JITS.SampleSize = 200
	return seedEngine(t, cfg)
}

// TestShowStatsThroughExec runs SHOW STATS through the ordinary Exec path
// after a few queries have populated the QSS archive.
func TestShowStatsThroughExec(t *testing.T) {
	e := recorderEngine(t)
	for _, sql := range []string{
		`SELECT id FROM car WHERE make = 'Toyota'`,
		`SELECT id FROM car WHERE make = 'Toyota' AND year > 1995`,
		`SELECT id FROM owner WHERE city = 'Ottawa'`,
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Exec(`SHOW STATS`)
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"stat", "table", "columns", "dims", "buckets", "merges", "last_used", "updated_at", "staleness", "error_factor"}
	if got := strings.Join(res.Columns, ","); got != strings.Join(wantCols, ",") {
		t.Fatalf("SHOW STATS columns = %s", got)
	}
	if len(res.Rows) == 0 {
		t.Fatal("SHOW STATS returned no rows although the archive is populated")
	}
	sawCar := false
	for _, row := range res.Rows {
		stat, table := row[0].Str(), row[1].Str()
		if !strings.HasPrefix(stat, table+"(") {
			t.Errorf("stat key %q does not carry table %q", stat, table)
		}
		if table == "car" {
			sawCar = true
		}
		if dims := row[3].Int(); dims < 1 {
			t.Errorf("%s: dims = %d", stat, dims)
		}
		if buckets := row[4].Int(); buckets < 1 {
			t.Errorf("%s: buckets = %d", stat, buckets)
		}
		if staleness := row[8].Int(); staleness < 0 {
			t.Errorf("%s: staleness = %d, want >= 0", stat, staleness)
		}
	}
	if !sawCar {
		t.Fatal("no car statistic in SHOW STATS output")
	}
}

// TestShowQueriesThroughExec exercises SHOW QUERIES and SHOW QUERIES LAST n
// and pins the row shape against the flight recorder's own view.
func TestShowQueriesThroughExec(t *testing.T) {
	e := recorderEngine(t)
	stmts := []string{
		`SELECT id FROM car WHERE make = 'Toyota'`,
		`SELECT COUNT(*) FROM owner WHERE city = 'Ottawa'`,
		`INSERT INTO owner VALUES (9001, 'ox', 'Ottawa', 'CA', 1)`,
	}
	for _, sql := range stmts {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Exec(`SHOW QUERIES LAST 3`)
	if err != nil {
		t.Fatal(err)
	}
	// The SHOW QUERIES statement itself commits only after its result is
	// built, so the snapshot holds exactly the three statements above.
	if len(res.Rows) != 3 {
		t.Fatalf("SHOW QUERIES LAST 3 returned %d rows, want 3", len(res.Rows))
	}
	kinds := []string{"select", "select", "dml"}
	var prevQID int64
	for i, row := range res.Rows {
		qid, kind, sql := row[0].Int(), row[1].Str(), row[2].Str()
		if qid <= prevQID {
			t.Errorf("row %d: qid %d not increasing (prev %d)", i, qid, prevQID)
		}
		prevQID = qid
		if kind != kinds[i] {
			t.Errorf("row %d: kind = %q, want %q", i, kind, kinds[i])
		}
		if sql != stmts[i] {
			t.Errorf("row %d: sql = %q, want %q", i, sql, stmts[i])
		}
		if wall, _ := row[4].AsFloat(); wall < 0 {
			t.Errorf("row %d: wall_ms = %v", i, wall)
		}
	}
	// SELECTs over a JITS engine should have sampled tables on first touch.
	if sampled := res.Rows[0][8].Str(); sampled == "" {
		t.Error("first SELECT recorded no sampled tables under JITS")
	}
	// Unbounded SHOW QUERIES returns at least as much (it now includes the
	// previous SHOW statement itself).
	res2, err := e.Exec(`SHOW QUERIES`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) < 4 {
		t.Fatalf("SHOW QUERIES returned %d rows, want >= 4", len(res2.Rows))
	}
	if got := res2.Rows[len(res2.Rows)-1][1].Str(); got != "show_queries" {
		t.Fatalf("newest record kind = %q, want show_queries", got)
	}
}

// TestShowQueriesDisabledRecorder: with the recorder off (capacity 0) the
// statement still works and reports nothing.
func TestShowQueriesDisabledRecorder(t *testing.T) {
	e := seedEngine(t, Config{})
	if _, err := e.Exec(`SELECT id FROM car WHERE make = 'BMW'`); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(`SHOW QUERIES`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("disabled recorder: SHOW QUERIES returned %d rows, want 0", len(res.Rows))
	}
}

// TestShowMetricsThroughExec: the engine's series come back as rows, and
// the statement-kind counters appear with their labels.
func TestShowMetricsThroughExec(t *testing.T) {
	e := recorderEngine(t)
	if _, err := e.Exec(`SELECT id FROM car WHERE make = 'Toyota'`); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(`SHOW METRICS`)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Columns, ","); got != "name,label,value" {
		t.Fatalf("SHOW METRICS columns = %s", got)
	}
	found := map[string]float64{}
	names := map[string]bool{}
	for _, row := range res.Rows {
		names[row[0].Str()] = true
		if row[0].Str() == "engine_statements_total" {
			v, _ := row[2].AsFloat()
			found[row[1].Str()] = v
		}
	}
	if found[`kind="select"`] < 1 {
		t.Fatalf("engine_statements_total{kind=\"select\"} = %v, want >= 1 (found: %v)", found[`kind="select"`], found)
	}
	// The archive's fits say whether they converged.
	for _, name := range []string{"histogram_ipf_fits_total", "histogram_ipf_rounds_total", "histogram_ipf_unconverged_total"} {
		if !names[name] {
			t.Errorf("%s missing from SHOW METRICS", name)
		}
	}
}

// metricValues runs SHOW METRICS on e and returns its rows by name and label.
func metricValues(t *testing.T, e *Engine) map[string]float64 {
	t.Helper()
	res, err := e.Exec(`SHOW METRICS`)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(res.Rows))
	for _, row := range res.Rows {
		v, _ := row[2].AsFloat()
		out[row[0].Str()+row[1].Str()] = v
	}
	return out
}

// TestShowMetricsReadsItsOwnEngine: SHOW METRICS describes the engine it
// runs on, with nothing to switch on first — an engine built from a default
// Config with JITS on counts its one SELECT and the rows that SELECT's
// preparation sampled, and a second engine in the same process reads zero
// for both.
func TestShowMetricsReadsItsOwnEngine(t *testing.T) {
	cfg := Config{}
	cfg.JITS.Enabled = true
	e, other := seedEngine(t, cfg), seedEngine(t, cfg)
	res, err := e.Exec(`SELECT id FROM car WHERE make = 'Toyota' AND year > 1995`)
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for _, tr := range res.Prepare.Tables {
		sampled += tr.SampleRows
	}
	if sampled == 0 {
		t.Fatal("the SELECT sampled nothing; the test needs a collecting statement")
	}
	const selects, rows = `engine_statements_total` + `kind="select"`, "jits_sample_rows_total"
	got := metricValues(t, e)
	if got[selects] != 1 || got[rows] != float64(sampled) {
		t.Errorf("engine: %s = %v, %s = %v; want 1 and the statement's %d sampled rows",
			selects, got[selects], rows, got[rows], sampled)
	}
	got = metricValues(t, other)
	if v, ok := got[selects]; !ok || v != 0 || got[rows] != 0 {
		t.Errorf("second engine: %s = %v (present %v), %s = %v; want 0 for both", selects, v, ok, rows, got[rows])
	}
}

// TestExplainHistoryThroughExec replays a recorded plan with actuals and
// pins the error paths (unknown qid, plan-less statement).
func TestExplainHistoryThroughExec(t *testing.T) {
	e := recorderEngine(t)
	if _, err := e.Exec(`SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`); err != nil {
		t.Fatal(err)
	}
	recs := e.Recorder().Last(1)
	if len(recs) != 1 {
		t.Fatal("no flight record for the SELECT")
	}
	qid := recs[0].QID
	res, err := e.Exec(fmt.Sprintf(`EXPLAIN HISTORY %d`, qid))
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != recs[0].Plan {
		t.Fatalf("EXPLAIN HISTORY plan:\n%s\nrecorded plan:\n%s", res.Plan, recs[0].Plan)
	}
	if !strings.Contains(res.Plan, "(actual rows=") {
		t.Fatalf("replayed plan carries no actuals:\n%s", res.Plan)
	}
	if len(res.Rows) != strings.Count(strings.TrimRight(res.Plan, "\n"), "\n")+1 {
		t.Fatalf("EXPLAIN HISTORY returned %d rows for plan:\n%s", len(res.Rows), res.Plan)
	}

	if _, err := e.Exec(`EXPLAIN HISTORY 999999`); err == nil || !strings.Contains(err.Error(), "no flight record") {
		t.Fatalf("unknown qid: err = %v", err)
	}
	// DML records no plan; replaying it must say so.
	if _, err := e.Exec(`INSERT INTO owner VALUES (9002, 'oy', 'Ottawa', 'CA', 1)`); err != nil {
		t.Fatal(err)
	}
	dmlQID := e.Recorder().Last(1)[0].QID
	if _, err := e.Exec(fmt.Sprintf(`EXPLAIN HISTORY %d`, dmlQID)); err == nil || !strings.Contains(err.Error(), "recorded no plan") {
		t.Fatalf("plan-less statement: err = %v", err)
	}
}

// TestStatementKindMetricLabels pins the metric label each statement kind
// increments: exactly its own child of engine_statements_total, nothing else.
func TestStatementKindMetricLabels(t *testing.T) {
	e := recorderEngine(t)
	if _, err := e.Exec(`SELECT id FROM car WHERE make = 'Lada'`); err != nil {
		t.Fatal(err) // warm a qid for EXPLAIN HISTORY below
	}
	histQID := e.Recorder().Last(1)[0].QID

	cases := []struct {
		sql, kind string
	}{
		{`SELECT id FROM car WHERE make = 'Toyota'`, "select"},
		{`EXPLAIN SELECT id FROM car WHERE make = 'Toyota'`, "explain"},
		{`EXPLAIN ANALYZE SELECT id FROM car WHERE make = 'Toyota'`, "explain_analyze"},
		{fmt.Sprintf(`EXPLAIN HISTORY %d`, histQID), "explain_history"},
		{`SHOW STATS`, "show_stats"},
		{`SHOW QUERIES LAST 1`, "show_queries"},
		{`SHOW METRICS`, "show_metrics"},
		{`SHOW ACCURACY`, "show_accuracy"},
		{`SHOW DRIFT`, "show_drift"},
		{`INSERT INTO owner VALUES (9100, 'om', 'Boston', 'US', 1)`, "dml"},
		{`UPDATE owner SET salary = 2 WHERE id = 9100`, "dml"},
		{`DELETE FROM owner WHERE id = 9100`, "dml"},
		{`CREATE TABLE mlabels (id INT)`, "ddl"},
		{`CREATE INDEX ix_mlabels ON mlabels (id)`, "ddl"},
	}
	for _, c := range cases {
		var before [numKinds]int64
		for k := range before {
			before[k] = e.counts.statements[k].Load()
		}
		if _, err := e.Exec(c.sql); err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		if rec := e.Recorder().Last(1)[0]; rec.Kind != c.kind {
			t.Errorf("%q: flight record kind %q, want %q", c.sql, rec.Kind, c.kind)
		}
		for k := kindNone + 1; k < numKinds; k++ {
			delta := e.counts.statements[k].Load() - before[k]
			want := int64(0)
			if k.String() == c.kind {
				want = 1
			}
			if delta != want {
				t.Errorf("%q: engine_statements_total{kind=%q} delta = %v, want %v", c.sql, k, delta, want)
			}
		}
	}
}

// actualLine matches one annotated plan operator line:
//
//	TableScan car as c filter[...] rows=40.0 cost=1008 (actual rows=40 units=... wall=...)
var actualLine = regexp.MustCompile(`rows=([0-9]+\.[0-9]) cost=\S+ \(actual rows=([0-9]+) `)

// TestQErrorPropertyMatchesExplainAnalyze is the recorded-q-error property
// test: for every operator the flight recorder captured, recomputing
// max(est, act) / max(1, min(est, act)) from the EXPLAIN ANALYZE text of the
// very same statement must agree with the recorded value — serial and
// parallel, on an engine built at each degree. Tolerance: the plan prints
// estimates rounded to one decimal, so the recomputed value can drift by the
// rounding.
func TestQErrorPropertyMatchesExplainAnalyze(t *testing.T) {
	queries := []string{
		`EXPLAIN ANALYZE SELECT id FROM car WHERE make = 'Toyota'`,
		`EXPLAIN ANALYZE SELECT id FROM car WHERE make = 'Honda' AND year > 1995`,
		`EXPLAIN ANALYZE SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`,
		`EXPLAIN ANALYZE SELECT COUNT(*) FROM car c, owner o WHERE c.price = o.salary`,
	}
	for _, dop := range []int{1, 4} {
		cfg := Config{FlightRecorderCapacity: -1, Parallelism: dop, JITS: core.DefaultConfig()}
		cfg.JITS.SampleSize = 200
		e := seedEngine(t, cfg)
		for _, sql := range queries {
			res, err := e.ExecUnboxed(context.Background(), sql)
			if err != nil {
				t.Fatalf("dop %d %q: %v", dop, sql, err)
			}
			rec, ok := e.Recorder().Get(e.Recorder().Last(1)[0].QID)
			if !ok || rec.SQL != sql {
				t.Fatalf("dop %d %q: flight record not found", dop, sql)
			}
			// Collect (est, act) pairs from the rendered plan, top-down.
			var parsed [][2]float64
			for _, line := range strings.Split(res.Plan, "\n") {
				m := actualLine.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				est, _ := strconv.ParseFloat(m[1], 64)
				act, _ := strconv.ParseFloat(m[2], 64)
				parsed = append(parsed, [2]float64{est, act})
			}
			if len(parsed) == 0 {
				t.Fatalf("dop %d %q: no annotated operators in plan:\n%s", dop, sql, res.Plan)
			}
			if len(parsed) != len(rec.Operators) {
				t.Fatalf("dop %d %q: plan shows %d annotated operators, record holds %d:\n%s",
					dop, sql, len(parsed), len(rec.Operators), res.Plan)
			}
			worst := 0.0
			for i, op := range rec.Operators {
				recomp := flightrec.QError(parsed[i][0], parsed[i][1])
				diff := op.QError - recomp
				if diff < 0 {
					diff = -diff
				}
				if diff > 0.05+0.05*recomp {
					t.Errorf("dop %d %q op %d (%s): recorded q-error %v, recomputed %v (est %v act %v)",
						dop, sql, i, op.Op, op.QError, recomp, parsed[i][0], parsed[i][1])
				}
				if op.QError > worst {
					worst = op.QError
				}
			}
			if worst != rec.WorstQError {
				t.Errorf("dop %d %q: WorstQError = %v, max over operators = %v", dop, sql, rec.WorstQError, worst)
			}
		}
	}
}

// TestFlightRecordCapturesJITSAndFeedback: the record of an executed SELECT
// carries the JITS sampling outcome, archive traffic and feedback error
// factors, and the phase timings the statement wrote with no trace on.
func TestFlightRecordCapturesJITSAndFeedback(t *testing.T) {
	e := recorderEngine(t)
	sql := `SELECT id FROM car WHERE make = 'Toyota' AND year > 1995`
	// Run three times: the first samples, the second materializes the group
	// histogram into the archive, and the third — sensitivity now low — skips
	// sampling and answers from the archive, which the record must show.
	for i := 0; i < 3; i++ {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	recs := e.Recorder().Last(3)
	if len(recs) != 3 {
		t.Fatal("missing flight records")
	}
	first, second := recs[0], recs[2]
	if len(first.Tables) == 0 || !first.Tables[0].Collected {
		t.Fatalf("first run recorded no collected table sample: %+v", first.Tables)
	}
	if len(first.Feedback) == 0 {
		t.Fatal("first run recorded no feedback")
	}
	if second.ArchiveHits == 0 {
		t.Fatalf("third identical run recorded no archive hits (misses=%d)", second.ArchiveMisses)
	}
	phases := map[string]bool{}
	for _, p := range first.Phases {
		phases[p.Phase] = true
	}
	for _, want := range []string{"jits.prepare", "optimize", "execute"} {
		if !phases[want] {
			t.Errorf("first run phases missing %q: %v", want, first.Phases)
		}
	}
	if first.Plan == "" || !strings.Contains(first.Plan, "(actual rows=") {
		t.Fatalf("record plan not annotated:\n%s", first.Plan)
	}
}

// BenchmarkStatementRecorder measures the end-to-end statement cost with the
// flight recorder off vs. on — the <5% overhead budget from the design doc.
// `make bench-smoke` runs both; compare the two numbers.
func BenchmarkStatementRecorderOff(b *testing.B) {
	benchmarkStatement(b, 0)
}

func BenchmarkStatementRecorderOn(b *testing.B) {
	benchmarkStatement(b, -1)
}

func benchmarkStatement(b *testing.B, recorderCap int) {
	cfg := Config{FlightRecorderCapacity: recorderCap}
	cfg.JITS = core.DefaultConfig()
	cfg.JITS.SampleSize = 200
	e := seedEngine(b, cfg)
	sql := `SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`
	if _, err := e.Exec(sql); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// accuracyEngine is recorderEngine at a small sample size — the configuration
// SHOW ACCURACY and SHOW DRIFT are interesting under.
func accuracyEngine(t testing.TB) *Engine {
	t.Helper()
	cfg := Config{FlightRecorderCapacity: -1}
	cfg.JITS = core.DefaultConfig()
	cfg.JITS.SampleSize = 200
	return seedEngine(t, cfg)
}

// TestShowAccuracyThroughExec runs SHOW ACCURACY through the ordinary Exec
// path after a few queries have fed the store, and pins the column shape.
func TestShowAccuracyThroughExec(t *testing.T) {
	e := accuracyEngine(t)
	for _, sql := range []string{
		`SELECT id FROM car WHERE make = 'Toyota'`,
		`SELECT id FROM owner WHERE city = 'Ottawa'`,
		`SELECT id FROM owner WHERE city = 'Ottawa'`,
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Exec(`SHOW ACCURACY`)
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"stat", "table", "state", "observations", "ewma_qerror",
		"cusum", "churn_rows", "merge_age", "merges", "last_observed", "drifted_at"}
	if got := strings.Join(res.Columns, ","); got != strings.Join(wantCols, ",") {
		t.Fatalf("SHOW ACCURACY columns = %s", got)
	}
	if len(res.Rows) == 0 {
		t.Fatal("SHOW ACCURACY returned no rows although queries ran")
	}
	for _, row := range res.Rows {
		stat, table, state := row[0].Str(), row[1].Str(), row[2].Str()
		if !strings.HasPrefix(stat, table+"(") {
			t.Errorf("stat key %q does not carry table %q", stat, table)
		}
		if state != "fresh" && state != "aging" && state != "drifted" {
			t.Errorf("%s: state = %q", stat, state)
		}
		if obs := row[3].Int(); obs < 1 {
			t.Errorf("%s: observations = %d", stat, obs)
		}
		if q, _ := row[4].AsFloat(); q < 1 {
			t.Errorf("%s: ewma_qerror = %v, want >= 1", stat, q)
		}
		if age := row[7].Int(); age < 0 {
			t.Errorf("%s: merge_age = %d", stat, age)
		}
	}

	// The FOR filter narrows to one table.
	res, err = e.Exec(`SHOW ACCURACY FOR owner`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("SHOW ACCURACY FOR owner returned no rows")
	}
	for _, row := range res.Rows {
		if row[1].Str() != "owner" {
			t.Errorf("FOR owner returned table %q", row[1].Str())
		}
	}
}

// TestShowDriftThroughExec: the drifted subset is empty on a healthy engine
// and carries the same columns as SHOW ACCURACY.
func TestShowDriftThroughExec(t *testing.T) {
	e := accuracyEngine(t)
	if _, err := e.Exec(`SELECT id FROM car WHERE make = 'Toyota'`); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(`SHOW DRIFT`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(res.Columns, ","), strings.Join(accuracyCols, ","); got != want {
		t.Fatalf("SHOW DRIFT columns = %s, want %s", got, want)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("healthy engine reports drifted stats: %+v", res.Rows)
	}
}

// TestShowAccuracyAlwaysOn: an engine built from the zero Config, JITS off,
// keeps the feedback store all the same: one query gives SHOW ACCURACY its
// column group and leaves SHOW DRIFT empty.
func TestShowAccuracyAlwaysOn(t *testing.T) {
	e := seedEngine(t, Config{})
	if _, err := e.Exec(`SELECT id FROM car WHERE make = 'BMW'`); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(`SHOW ACCURACY`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "car(make)" || res.Rows[0][3].Int() != 1 {
		t.Fatalf("SHOW ACCURACY on a zero-Config engine = %v, want car(make) with one observation", res.Rows)
	}
	if res, err = e.Exec(`SHOW DRIFT`); err != nil || len(res.Rows) != 0 {
		t.Fatalf("SHOW DRIFT = %v, %v; want no rows", res.Rows, err)
	}
}

// TestShowQueriesEpochColumn: every flight-recorder row carries the archive
// epoch it executed under, surfaced as the (appended-last) epoch column.
func TestShowQueriesEpochColumn(t *testing.T) {
	e := recorderEngine(t)
	if _, err := e.Exec(`SELECT id FROM car WHERE make = 'Toyota'`); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(`SHOW QUERIES`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Columns[len(res.Columns)-1]; got != "epoch" {
		t.Fatalf("last SHOW QUERIES column = %q, want epoch", got)
	}
	epochIdx := len(res.Columns) - 1
	for i, row := range res.Rows {
		if ep := row[epochIdx].Int(); ep < 0 {
			t.Errorf("row %d: epoch = %d", i, ep)
		}
	}
	// A DML bumps the archive epoch; the next recorded statement must carry
	// the larger value.
	before := res.Rows[len(res.Rows)-1][epochIdx].Int()
	if _, err := e.Exec(`INSERT INTO owner VALUES (9002, 'ep', 'Ottawa', 'CA', 1)`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(`SELECT id FROM car WHERE make = 'Toyota'`); err != nil {
		t.Fatal(err)
	}
	res, err = e.Exec(`SHOW QUERIES LAST 1`)
	if err != nil {
		t.Fatal(err)
	}
	if after := res.Rows[0][epochIdx].Int(); after <= before {
		t.Fatalf("epoch did not advance across DML: before=%d after=%d", before, after)
	}
}
