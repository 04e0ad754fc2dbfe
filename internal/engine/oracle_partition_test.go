package engine_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/value"
)

// TestPredicatesPartitionAColumn is the metamorphic arm: whatever a value is
// — NaN, an integer no float64 holds, a string against a number — a column's
// non-NULL rows split exactly into those below, equal to and above it, and
// two unequal values are equal to disjoint sets of rows:
//
//	COUNT(c < v) + COUNT(c = v) + COUNT(c > v) = COUNT(c)
//	COUNT(c IN (v1, v2)) = COUNT(c = v1) + COUNT(c = v2)        (v1 ≠ v2)
//
// over every column of the edge tables and a pool of values that SQL text
// cannot all spell (the statements are built as syntax trees). Each
// statement runs as a table scan and, where the column is indexed and the
// operator sargable, as an index scan of the same plan node; both must return
// the rows the oracle does.
func TestPredicatesPartitionAColumn(t *testing.T) {
	e := oracleEngine(t, engine.Config{StorageChunkSize: 64})
	pool := []value.Datum{
		value.NewInt(0), value.NewInt(2), value.NewInt(-1), value.NewInt(3),
		value.NewInt(1 << 53), value.NewInt(1<<53 + 1), value.NewInt(1<<53 + 2),
		value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64),
		value.NewFloat(2), value.NewFloat(0.25), value.NewFloat(-1.5), value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(1 << 53), value.NewFloat(1 << 63), value.NewFloat(-(1 << 63)),
		value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)),
		value.NewString(""), value.NewString("b"),
	}
	indexScans := 0
	for _, table := range []string{"ta", "tb"} {
		names, rows := engineTables(e)(table)
		for c, column := range names {
			nonNull := 0
			for _, row := range rows {
				if !row[c].IsNull() {
					nonNull++
				}
			}
			// ids runs SELECT id FROM table WHERE <column pred> both ways and
			// returns the sorted ids.
			ids := func(pred sqlparser.Expr) []int64 {
				sel := &sqlparser.SelectStmt{
					Projections: []sqlparser.SelectExpr{{Col: sqlparser.ColumnRef{Column: "id"}, Alias: "id"}},
					From:        []sqlparser.TableRef{{Table: table, Alias: table}},
					Where:       []sqlparser.Expr{pred},
					Limit:       -1,
				}
				var want []int64
				for _, row := range oracleEval(t, engineTables(e), sel) {
					want = append(want, row.out[0].Int())
				}
				slices.Sort(want)
				q, err := qgm.Build(sel, e)
				if err != nil {
					t.Fatalf("%s: %v", pred, err)
				}
				blk := q.Blocks[0]
				scan := &optimizer.Scan{Slot: 0, Alias: table, Table: table, Preds: blk.LocalPreds[0]}
				paths := []*optimizer.Scan{scan}
				if _, boxable := scan.Preds[0].Region(); boxable {
					if _, ok := e.Indexes().Find(table, column); ok {
						ix := *scan
						ix.IndexColumn, ix.IndexPred = column, &scan.Preds[0]
						paths = append(paths, &ix)
						indexScans++
					}
				}
				for _, plan := range paths {
					res, err := executor.Execute(blk, plan, &executor.Runtime{
						DB: e.DB(), Indexes: e.Indexes(), Weights: e.Weights(), Meter: new(costmodel.Meter),
					})
					if err != nil {
						t.Fatalf("%s %s: %v", plan.Describe(), pred, err)
					}
					got := make([]int64, len(res.Rows))
					for i, row := range res.Rows {
						got[i] = row[0].Int()
					}
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Errorf("%s WHERE %s: ids %v, oracle has %v", plan.Describe(), pred, got, want)
					}
				}
				return want
			}
			col := sqlparser.ColumnRef{Column: column}
			compare := func(op sqlparser.CompareOp, v value.Datum) int {
				return len(ids(&sqlparser.Comparison{Left: col, Op: op, RightVal: v}))
			}
			equal := make([]int, len(pool))
			for i, v := range pool {
				equal[i] = compare(sqlparser.OpEQ, v)
				below, above := compare(sqlparser.OpLT, v), compare(sqlparser.OpGT, v)
				if below+equal[i]+above != nonNull {
					t.Errorf("%s.%s against %v: %d below + %d equal + %d above, %d non-NULL rows", table, column, v, below, equal[i], above, nonNull)
				}
				if le, ge := compare(sqlparser.OpLE, v), compare(sqlparser.OpGE, v); le != below+equal[i] || ge != equal[i]+above {
					t.Errorf("%s.%s against %v: <= %d, >= %d; < %d, = %d, > %d", table, column, v, le, ge, below, equal[i], above)
				}
				if ne := compare(sqlparser.OpNE, v); ne != below+above {
					t.Errorf("%s.%s against %v: <> %d; < %d, > %d", table, column, v, ne, below, above)
				}
				if between := len(ids(&sqlparser.Between{Col: col, Lo: v, Hi: v})); between != equal[i] {
					t.Errorf("%s.%s BETWEEN %v AND %v: %d rows, = has %d", table, column, v, v, between, equal[i])
				}
			}
			for i, v1 := range pool {
				for j, v2 := range pool[:i] {
					if oracleCmp(v1, v2) == 0 {
						continue
					}
					if in := len(ids(&sqlparser.InList{Col: col, Values: []value.Datum{v1, v2}})); in != equal[i]+equal[j] {
						t.Errorf("%s.%s IN (%v, %v): %d rows, = has %d and %d", table, column, v1, v2, in, equal[i], equal[j])
					}
				}
			}
		}
	}
	if indexScans == 0 {
		t.Error("no statement ran as an index scan — that arm tested nothing")
	}
	t.Logf("%d statements also ran as index scans", indexScans)
}

// TestOrderOfTheIssuesColumn pins the column the standing finding was
// written about, f = {NaN, 1, −3, NaN, 5, 0.5}: ORDER BY is a sort, MIN and
// MAX are its ends, and f = 1 is one row by scan and by index alike.
func TestOrderOfTheIssuesColumn(t *testing.T) {
	e := engine.New(engine.Config{})
	for _, ddl := range []string{`CREATE TABLE tf (id INT, f FLOAT)`, `CREATE INDEX ix_tf_f ON tf (f)`} {
		if _, err := e.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	tf, _ := e.DB().Table("tf")
	for i, f := range []float64{math.NaN(), 1, -3, math.NaN(), 5, 0.5} {
		if err := tf.Insert([]value.Datum{value.NewInt(int64(i)), value.NewFloat(f)}); err != nil {
			t.Fatal(err)
		}
	}
	for sql, want := range map[string]string{
		`SELECT id, f FROM tf ORDER BY f`:                 "[[2 -3] [5 0.5] [1 1] [4 5] [0 NaN] [3 NaN]]",
		`SELECT MIN(f), MAX(f) FROM tf`:                   "[[-3 NaN]]",
		`SELECT id FROM tf WHERE f = 1`:                   "[[1]]",
		`SELECT id FROM tf WHERE f >= 1`:                  "[[0] [1] [3] [4]]",
		`SELECT f, COUNT(*) FROM tf GROUP BY f`:           "[[NaN 2] [1 1] [-3 1] [5 1] [0.5 1]]",
		`SELECT COUNT(*) FROM tf a, tf b WHERE a.f = b.f`: "[[8]]",
	} {
		res, err := e.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := fmt.Sprint(res.Rows); got != want {
			t.Errorf("%s\n got %s\nwant %s\n%s", sql, got, want, res.Plan)
		}
	}
	ix, _ := e.Indexes().Find("tf", "f")
	if got := fmt.Sprint(ix.Lookup(value.NewFloat(1)), ix.Lookup(value.NewFloat(math.NaN())), ix.Lookup(value.NewInt(5))); got != "[1] [0 3] [4]" {
		t.Errorf("index lookups of 1, NaN and int 5: %s", got)
	}
}
