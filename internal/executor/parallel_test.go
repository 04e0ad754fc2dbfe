package executor

import (
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
)

// runSQLWith optimizes and executes one SELECT under the given Runtime
// parallelism settings.
func runSQLWith(t testing.TB, e *env, sql string, dop, morselSize int) (*Result, *costmodel.Meter) {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := qgm.Build(stmt.(*sqlparser.SelectStmt), e)
	if err != nil {
		t.Fatal(err)
	}
	blk := q.Blocks[0]
	var compileMeter costmodel.Meter
	ctx := &optimizer.Context{
		Est:     &optimizer.Estimator{Cat: e.cat},
		Indexes: e.indexes,
		Weights: costmodel.DefaultWeights(),
		Meter:   &compileMeter,
	}
	plan, err := optimizer.Optimize(blk, ctx)
	if err != nil {
		t.Fatal(err)
	}
	var execMeter costmodel.Meter
	rt := &Runtime{
		DB: e.db, Indexes: e.indexes, Weights: costmodel.DefaultWeights(),
		Meter: &execMeter, Parallelism: dop, MorselSize: morselSize,
	}
	res, err := Execute(blk, plan, rt)
	if err != nil {
		t.Fatal(err)
	}
	return res, &execMeter
}

// sameRows asserts two results are identical row for row (the parallel
// operators are order-deterministic, so no normalization is needed), with
// float cells compared to a small relative tolerance since partial float
// sums associate differently.
func sameRows(t *testing.T, serial, parallel *Result) {
	t.Helper()
	if len(serial.Columns) != len(parallel.Columns) {
		t.Fatalf("columns: %v vs %v", serial.Columns, parallel.Columns)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("rows: serial %d, parallel %d", len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		for j := range serial.Rows[i] {
			sd, pd := serial.Rows[i][j], parallel.Rows[i][j]
			sf, sok := sd.AsFloat()
			pf, pok := pd.AsFloat()
			if sok && pok {
				diff := sf - pf
				if diff < 0 {
					diff = -diff
				}
				scale := 1.0
				if sf > 1 || sf < -1 {
					scale = sf
					if scale < 0 {
						scale = -scale
					}
				}
				if diff > 1e-9*scale {
					t.Fatalf("row %d col %d: %v vs %v", i, j, sd, pd)
				}
				continue
			}
			if !sd.Equal(pd) && !(sd.IsNull() && pd.IsNull()) {
				t.Fatalf("row %d col %d: %v vs %v", i, j, sd, pd)
			}
		}
	}
}

// queries covering the parallel operators: seq scan with filters, hash
// join, grouped and global aggregation, DISTINCT / ORDER BY / LIMIT above
// them. Morsel size 16 forces every 200-row scan through many morsels.
var parallelQueries = []string{
	`SELECT id FROM car WHERE make = 'Toyota'`,
	`SELECT id, price FROM car WHERE year > 1995 AND make <> 'BMW'`,
	`SELECT c.id, o.city FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`,
	`SELECT make, COUNT(*), SUM(price), MIN(year), MAX(year) FROM car GROUP BY make ORDER BY make`,
	`SELECT COUNT(*), AVG(price) FROM car WHERE year >= 1991`,
	`SELECT DISTINCT make FROM car ORDER BY make`,
	`SELECT o.city, COUNT(*) AS n FROM car c, owner o WHERE c.ownerid = o.id GROUP BY o.city ORDER BY n DESC`,
	`SELECT id FROM car WHERE make = 'NoSuchMake'`,
	`SELECT SUM(price) FROM car WHERE make = 'NoSuchMake'`,
	`SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id ORDER BY c.id LIMIT 7`,
}

// TestParallelMatchesSerial runs every covered query shape serially and at
// several degrees of parallelism; rows, order and metered work must match.
func TestParallelMatchesSerial(t *testing.T) {
	e := newEnv(t)
	for _, sql := range parallelQueries {
		serial, sm := runSQLWith(t, e, sql, 1, 16)
		for _, dop := range []int{2, 4, 8} {
			par, pm := runSQLWith(t, e, sql, dop, 16)
			t.Run(fmt.Sprintf("dop%d/%s", dop, sql[:20]), func(t *testing.T) {
				sameRows(t, serial, par)
				// Identical simulated work at any parallelism: the knob
				// changes wall clock, never the charged units.
				if d := sm.Units() - pm.Units(); d > 1e-6 || d < -1e-6 {
					t.Errorf("meter: serial %v, parallel %v", sm.Units(), pm.Units())
				}
			})
		}
	}
}

// TestParallelActualsMatchSerial checks the feedback path: parallel scans
// must report the same ScanActual cardinalities the serial scans do, or the
// paper's feedback loop would learn different error factors per dop.
func TestParallelActualsMatchSerial(t *testing.T) {
	e := newEnv(t)
	sql := `SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND c.make = 'Toyota' AND o.city = 'Ottawa'`
	serial, _ := runSQLWith(t, e, sql, 1, 16)
	par, _ := runSQLWith(t, e, sql, 4, 16)
	if len(serial.Actuals) != len(par.Actuals) {
		t.Fatalf("actuals: %d vs %d", len(serial.Actuals), len(par.Actuals))
	}
	for i := range serial.Actuals {
		s, p := serial.Actuals[i], par.Actuals[i]
		if s.Table != p.Table || s.BaseRows != p.BaseRows || s.Examined != p.Examined || s.Matched != p.Matched {
			t.Errorf("actual %d: serial %+v, parallel %+v", i, s, p)
		}
	}
}

// TestParallelAggregateGroupOrder pins the first-appearance group-order
// guarantee: with no ORDER BY, the parallel aggregation must emit groups in
// the same order the serial accumulator discovers them (row order).
func TestParallelAggregateGroupOrder(t *testing.T) {
	e := newEnv(t)
	sql := `SELECT make, COUNT(*) FROM car GROUP BY make`
	serial, _ := runSQLWith(t, e, sql, 1, 16)
	par, _ := runSQLWith(t, e, sql, 8, 16)
	for i := range serial.Rows {
		if serial.Rows[i][0].Str() != par.Rows[i][0].Str() {
			t.Fatalf("group order diverged at %d: %v vs %v (serial %v, parallel %v)",
				i, serial.Rows[i][0], par.Rows[i][0], serial.Rows, par.Rows)
		}
	}
}
