package engine_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/value"
	"repro/internal/workload"
)

// oracleEngine loads the car-insurance dataset plus two small tables built
// to sit on the executor's edges: ta/tb join on int keys with NULLs,
// duplicates and values past ±2^53; tb.kf holds each key rounded to a float,
// so a.k = b.kf is an int column against a float column whose values name
// different integers than the ints they came from (2^53+1 rounds to 2^53,
// 2^63−1 to 2^63, which no int equals), plus NaN; ta.f mixes NaN, ±Inf and
// both zeros into quarter-valued floats whose sums are exact in any order —
// a.f = b.kf joins on NaN, 0 and 2 — and g/h are small grouping domains with
// NULLs. ta.f, ta.g and tb.k are indexed.
func oracleEngine(t testing.TB, cfg engine.Config) *engine.Engine {
	t.Helper()
	e := engine.New(cfg)
	if _, err := workload.Load(e, workload.Spec{Scale: 0.002, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{
		`CREATE TABLE ta (id INT, k INT, f FLOAT, s STRING, g INT)`,
		`CREATE TABLE tb (id INT, k INT, kf FLOAT, s STRING, h INT)`,
		`CREATE INDEX ix_tb_k ON tb (k)`,
		`CREATE INDEX ix_ta_g ON ta (g)`,
		`CREATE INDEX ix_ta_f ON ta (f)`,
	} {
		if _, err := e.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(20))
	keys := []int64{0, 1, 2, 3, 5, 8, -1, 1 << 53, 1<<53 + 1, 1<<53 + 2, -(1<<53 + 1), math.MaxInt64, math.MaxInt64 - 1, math.MinInt64}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 0.25, -1.5, 2, 2, 7.75}
	words := []string{"a", "b", "b", "", "o'k", "zz"}
	orNull := func(d value.Datum) value.Datum {
		if rng.Intn(7) == 0 {
			return value.Null
		}
		return d
	}
	ta, _ := e.DB().Table("ta")
	tb, _ := e.DB().Table("tb")
	for i := 0; i < 90; i++ {
		k := keys[rng.Intn(len(keys))]
		if err := ta.Insert([]value.Datum{
			value.NewInt(int64(i)), orNull(value.NewInt(k)), orNull(value.NewFloat(floats[rng.Intn(len(floats))])),
			orNull(value.NewString(words[rng.Intn(len(words))])), orNull(value.NewInt(int64(rng.Intn(4)))),
		}); err != nil {
			t.Fatal(err)
		}
		k = keys[rng.Intn(len(keys))]
		kf := value.NewFloat(float64(k))
		switch rng.Intn(8) {
		case 0:
			kf = value.NewFloat(math.NaN())
		case 1:
			kf = value.NewFloat(math.Copysign(0, -1)) // −0 must join 0
		}
		if err := tb.Insert([]value.Datum{
			value.NewInt(int64(i)), orNull(value.NewInt(k)), orNull(kf),
			orNull(value.NewString(words[rng.Intn(len(words))])), orNull(value.NewInt(int64(rng.Intn(3)))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunstatsAll(); err != nil {
		t.Fatal(err)
	}
	return e
}

// oracleStatements: three instances of each paper template, the four OLTP
// point shapes, and the seeded edge-table statements — literals on both sides
// of 2^53 and 2^63, as ints and as floats; joins on the NaN-bearing float keys;
// MIN, MAX and ORDER BY over ta.f; and col IN (SELECT …) with an int column
// against a float subquery, the reverse, and a NaN-bearing subquery.
func oracleStatements(t testing.TB, e *engine.Engine) []string {
	d, err := workload.Load(engine.New(engine.Config{}), workload.Spec{Scale: 0.002, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, st := range d.Queries(18, 5) {
		out = append(out, st.SQL)
	}
	out = append(out,
		`SELECT name, city FROM owner WHERE id = 17`,
		`SELECT make, model, price FROM car WHERE id = 40`,
		`SELECT id FROM car WHERE ownerid = 23`,
		`SELECT damage, severity FROM accidents WHERE carid = 31`,
	)

	rng := rand.New(rand.NewSource(21))
	lits := []string{"0", "2", "-1", "2.0", "0.25", "-1.5", "'b'", "''", "'zz'", "NULL", "3",
		"9007199254740992", "9007199254740993", "9007199254740992.0", "9223372036854775807", "9223372036854775808.0"}
	lit := func() string { return lits[rng.Intn(len(lits))] }
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	conjunct := func(alias string, cols []string) string {
		c := alias + cols[rng.Intn(len(cols))]
		switch rng.Intn(6) {
		case 0:
			return fmt.Sprintf("%s BETWEEN %s AND %s", c, lit(), lit())
		case 1:
			return fmt.Sprintf("%s IN (%s, %s, %s)", c, lit(), lit(), lit())
		default:
			return fmt.Sprintf("%s %s %s", c, ops[rng.Intn(len(ops))], lit())
		}
	}
	where := func(first string, alias string, cols []string) string {
		parts := []string{}
		if first != "" {
			parts = append(parts, first)
		}
		for n := rng.Intn(3); n > 0; n-- {
			parts = append(parts, conjunct(alias, cols))
		}
		if len(parts) == 0 {
			return ""
		}
		return " WHERE " + strings.Join(parts, " AND ")
	}
	taCols := []string{"id", "k", "f", "s", "g"}
	joins := []string{"a.k = b.k", "a.k = b.kf", "a.k = b.k AND a.s = b.s", "a.f = b.kf", "a.s = b.s", "a.g = b.h"}
	tbCols := []string{"id", "k", "kf", "s", "h"}
	for i := 0; i < 25; i++ {
		out = append(out,
			`SELECT id, f, s FROM ta`+where("", "", taCols),
			`SELECT DISTINCT g, s, f FROM ta`+where("", "", taCols),
			`SELECT g, COUNT(*), COUNT(f), SUM(f), AVG(id), MIN(s), MAX(k) FROM ta`+where("", "", taCols)+` GROUP BY g`,
			`SELECT COUNT(*), SUM(id), AVG(f), MIN(k), MAX(s), MIN(f), MAX(f) FROM ta`+where("", "", taCols),
			`SELECT g, MIN(f), MAX(f) FROM ta`+where("", "", taCols)+` GROUP BY g`,
			`SELECT id, f FROM ta`+where("", "", taCols)+` ORDER BY f`,
			`SELECT f, id FROM ta`+where("", "", taCols)+fmt.Sprintf(` ORDER BY f DESC LIMIT %d`, 1+rng.Intn(12)),
			`SELECT f, s, COUNT(*) AS n FROM ta`+where("", "", taCols)+` GROUP BY f, s ORDER BY n DESC`,
			`SELECT g, id FROM ta`+where("", "", taCols)+fmt.Sprintf(` ORDER BY g DESC LIMIT %d`, 1+rng.Intn(12)),
			`SELECT a.id AS aid, b.id AS bid FROM ta a, tb b`+where(joins[rng.Intn(len(joins))], "a.", taCols),
			`SELECT b.h, COUNT(*), SUM(a.id), COUNT(a.f) FROM ta a, tb b`+where(joins[rng.Intn(4)], "a.", taCols)+` GROUP BY b.h`,
			`SELECT DISTINCT a.g, b.h FROM ta a, tb b`+where(joins[rng.Intn(len(joins))], "b.", tbCols)+` ORDER BY g DESC, h`,
			`SELECT id, k FROM ta`+where("k IN (SELECT kf FROM tb"+where("", "", tbCols)+")", "", taCols),
			`SELECT id, kf FROM tb`+where("kf IN (SELECT k FROM ta"+where("", "", taCols)+")", "", tbCols),
			`SELECT id, f FROM ta`+where("f IN (SELECT kf FROM tb"+where("", "", tbCols)+")", "", taCols),
			`SELECT g, COUNT(*) FROM ta`+where("k IN (SELECT MAX(kf) FROM tb"+where("", "", tbCols)+" GROUP BY h)", "", taCols)+` GROUP BY g`,
		)
	}
	out = append(out,
		`SELECT COUNT(*), SUM(f), MIN(s) FROM ta WHERE id > 100000`,
		`SELECT g, COUNT(*) FROM ta WHERE id > 100000 GROUP BY g`,
		`SELECT a.id AS aid, b.id AS bid FROM ta a, tb b WHERE a.id < 4 AND b.id < 3`,
	)
	return out
}

// checkAgainstOracle holds one engine answer to the oracle's: the same
// multiset of rows; under ORDER BY also the same sequence of sort keys
// (which rows tie is the plan's business, what the keys read is not); under
// LIMIT the right number of rows, each one the oracle has, and the oracle's
// leading keys.
func checkAgainstOracle(t *testing.T, label, sql string, want []oracleRow, got [][]value.Datum) {
	t.Helper()
	sel := mustParseSelect(t, sql)
	n := len(want)
	if sel.Limit >= 0 && sel.Limit < n {
		n = sel.Limit
	}
	if len(got) != n {
		t.Errorf("%s: %d rows, oracle has %d\n%s", label, len(got), n, sql)
		return
	}
	have := map[string]int{}
	keyOf := map[string]string{}
	ambiguous := false
	for _, row := range want {
		rk, kk := oracleRowKey(row.out), oracleRowKey(row.keys)
		have[rk]++
		if prev, ok := keyOf[rk]; ok && prev != kk {
			ambiguous = true
		}
		keyOf[rk] = kk
	}
	for i, row := range got {
		rk := oracleRowKey(row)
		if have[rk] == 0 {
			t.Errorf("%s: row %d %v is not in the oracle's answer (or too often)\n%s", label, i, row, sql)
			return
		}
		have[rk]--
		if len(sel.OrderBy) > 0 && !ambiguous && keyOf[rk] != oracleRowKey(want[i].keys) {
			t.Errorf("%s: row %d %v sorts where the oracle has keys %v\n%s", label, i, row, want[i].keys, sql)
			return
		}
	}
}

func mustParseSelect(t testing.TB, sql string) *sqlparser.SelectStmt {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return stmt.(*sqlparser.SelectStmt)
}

// TestEngineMatchesOracle runs every statement through engine.Exec at
// {dop 1, 4} × {reopt off, armed with a hair trigger}, and — below the
// optimizer, where the methods can be chosen — through executor.Execute
// with every join of the plan forced to each method in turn, again at both
// degrees of parallelism and with and without re-optimization.
func TestEngineMatchesOracle(t *testing.T) {
	ref := oracleEngine(t, engine.Config{})
	stmts := oracleStatements(t, ref)
	want := make([][]oracleRow, len(stmts))
	for i, sql := range stmts {
		want[i] = oracleSelect(t, engineTables(ref), sql)
	}

	for _, dop := range []int{1, 4} {
		for _, reopt := range []bool{false, true} {
			cfg := engine.Config{Parallelism: dop, StorageChunkSize: 64}
			cfg.Reopt = engine.ReoptConfig{Enabled: reopt, QErrorThreshold: 1.05, MaxReopts: 3}
			e := oracleEngine(t, cfg)
			reopts := 0
			for i, sql := range stmts {
				res, err := e.Exec(sql)
				if err != nil {
					t.Fatalf("dop %d reopt %v: %s: %v", dop, reopt, sql, err)
				}
				reopts += res.Reopts
				checkAgainstOracle(t, fmt.Sprintf("engine dop %d reopt %v", dop, reopt), sql, want[i], res.Rows)
			}
			if reopt && reopts == 0 {
				t.Errorf("dop %d: re-optimization never triggered — that arm tested nothing", dop)
			}
		}
	}

	methods := []optimizer.JoinMethod{optimizer.HashJoin, optimizer.MergeJoin, optimizer.IndexNLJoin, optimizer.NestedLoopJoin}
	forced := map[optimizer.JoinMethod]int{}
	for i, sql := range stmts {
		sel := mustParseSelect(t, sql)
		if len(sel.From) < 2 {
			continue // no join to force (every IN-subquery statement is one of these)
		}
		q, err := qgm.Build(sel, ref)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		blk := q.Blocks[0]
		for _, method := range methods {
			for _, dop := range []int{1, 4} {
				for _, reopt := range []bool{false, true} {
					label := fmt.Sprintf("forced %v dop %d reopt %v", method, dop, reopt)
					rows, n, err := executeForced(ref, blk, method, dop, reopt)
					if err != nil {
						t.Fatalf("%s: %s: %v", label, sql, err)
					}
					forced[method] += n
					checkAgainstOracle(t, label, sql, want[i], rows)
				}
			}
		}
	}
	for _, m := range methods {
		if forced[m] == 0 {
			t.Errorf("%v was never the method of an executed join", m)
		}
	}
	t.Logf("%d statements; joins executed per forced method: %v", len(stmts), forced)
}

// executeForced plans blk against e's catalog, rewrites every join to
// method where the operator can run it (an index nested-loop join needs a
// scan inner with an index on a join column; a cross join stays nested
// loops) and executes it — with reopt, re-planning and re-forcing whenever
// a checkpoint triggers, so Materialized leaves feed every join method. It
// returns the rows and how many joins ran as method.
func executeForced(e *engine.Engine, blk *qgm.Block, method optimizer.JoinMethod, dop int, reopt bool) ([][]value.Datum, int, error) {
	octx := &optimizer.Context{
		Est: &optimizer.Estimator{Cat: e.Catalog()}, Indexes: e.Indexes(),
		Weights: e.Weights(), Meter: new(costmodel.Meter),
	}
	plan, err := optimizer.Optimize(blk, octx)
	if err != nil {
		return nil, 0, err
	}
	rt := &executor.Runtime{
		DB: e.DB(), Indexes: e.Indexes(), Weights: e.Weights(), Meter: new(costmodel.Meter),
		Parallelism: dop, MorselSize: 16,
	}
	if reopt && blk.Limit < 0 {
		rt.Reopt = executor.NewReoptState(1.05, 3)
	}
	for {
		count := 0
		optimizer.Walk(plan, func(n optimizer.Node) {
			j, ok := n.(*optimizer.Join)
			if !ok || len(j.Preds) == 0 {
				return
			}
			if method == optimizer.IndexNLJoin {
				inner, isScan := j.Right.(*optimizer.Scan)
				if !isScan {
					return
				}
				indexed := false
				for _, jp := range j.Preds {
					_, ok := e.Indexes().Find(inner.Table, jp.RightCol)
					indexed = indexed || (ok && jp.RightSlot == inner.Slot)
				}
				if !indexed {
					return
				}
			}
			j.Method = method
			count++
		})
		res, err := executor.Execute(blk, plan, rt)
		var trig *executor.ReoptTriggered
		if errors.As(err, &trig) {
			if plan, err = optimizer.ReOptimize(blk, octx, rt.Reopt.Leaves()); err != nil {
				return nil, 0, err
			}
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		return res.Rows, count, nil
	}
}
