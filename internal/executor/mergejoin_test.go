package executor

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// forceJoinMethod optimizes the SQL, then rebuilds the top join with the
// requested method and executes it serially, returning the result.
func forceJoinMethod(t *testing.T, e *env, sql string, method optimizer.JoinMethod) *Result {
	t.Helper()
	return forceJoinMethodAt(t, e, sql, method, 1, 0)
}

// forceJoinMethodAt is forceJoinMethod at a degree of parallelism and morsel
// size (0 = the default). The first FROM table is the join's left input.
func forceJoinMethodAt(t *testing.T, e *env, sql string, method optimizer.JoinMethod, dop, morselSize int) *Result {
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
	var cm costmodel.Meter
	ctx := &optimizer.Context{
		Est:     &optimizer.Estimator{Cat: e.cat},
		Indexes: e.indexes,
		Weights: costmodel.DefaultWeights(),
		Meter:   &cm,
	}
	plan, err := optimizer.Optimize(blk, ctx)
	if err != nil {
		t.Fatal(err)
	}
	scans := optimizer.CollectScans(plan)
	if len(scans) != 2 {
		t.Fatalf("test query must join exactly 2 tables, got %d scans", len(scans))
	}
	forced := &optimizer.Join{
		Left: scans[0], Right: scans[1], Method: method, Preds: blk.JoinPreds,
	}
	var m costmodel.Meter
	res, err := Execute(blk, forced, &Runtime{
		DB: e.db, Indexes: e.indexes, Weights: costmodel.DefaultWeights(), Meter: &m,
		Parallelism: dop, MorselSize: morselSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// addJoinTable creates a table of (key columns..., id) rows with an index on
// its first column, so it can be the inner of an index nested-loop join.
func addJoinTable(t *testing.T, e *env, name string, keyKinds []value.Kind, keys [][]value.Datum) {
	t.Helper()
	cols := make([]storage.Column, 0, len(keyKinds)+1)
	for i, k := range keyKinds {
		cols = append(cols, storage.Column{Name: string(rune('a' + i)), Kind: k})
	}
	cols = append(cols, storage.Column{Name: "id", Kind: value.KindInt})
	tbl, err := e.db.CreateTable(name, storage.MustSchema(cols...))
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := tbl.Insert(append(append([]value.Datum(nil), k...), value.NewInt(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	var m costmodel.Meter
	st, err := catalog.Runstats(tbl, 1, &m, costmodel.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	e.cat.SetTableStats(st)
	if _, err := e.indexes.Create("ix_"+name, tbl, "a"); err != nil {
		t.Fatal(err)
	}
}

// TestJoinMethodsAgree runs one equi-join through all four join operators
// and requires the same multiset of (left id, right id) pairs from each, on
// keys chosen to break a join key that is not injective: strings spelling
// the key encoding's separators and tags, an int column against a float
// column, ints around 2^53 where a float64 key collapses neighbours, both
// zeros, NULLs. Nested loops — Datum.Equal on every pair — is the reference.
// Each table holds more rows than a morsel of 8, so dop 4 splits every input.
func TestJoinMethodsAgree(t *testing.T) {
	e := newEnv(t)
	str, i64, f64, null := value.NewString, value.NewInt, value.NewFloat, value.Null
	strKeys := [][]value.Datum{
		{str("a|sb"), str("c")}, {str("a"), str("b|sc")}, {str("a"), str("b")},
		{str("|"), str("|s")}, {str("|s"), str("|")}, {str("o'brien"), str("'")},
		{str("o"), str("'brien'")}, {null, str("c")}, {str("a"), null}, {str(""), str("s")},
		{str("s"), str("")}, {str("a|sb"), str("c")},
	}
	intKeys := [][]value.Datum{
		{i64(5)}, {i64(0)}, {i64(-5)}, {null}, {i64(1<<53 - 1)}, {i64(1 << 53)}, {i64(1<<53 + 1)},
		{i64(1<<53 + 2)}, {i64(math.MaxInt64)}, {i64(math.MaxInt64 - 1)}, {i64(math.MinInt64)}, {i64(5)},
	}
	floatKeys := [][]value.Datum{
		{f64(5)}, {f64(0)}, {f64(math.Copysign(0, -1))}, {f64(-5)}, {null}, {f64(5.5)},
		{f64(4.999999999999999)}, {f64(1<<53 - 1)}, {f64(0.5)}, {f64(5)},
	}
	reversed := func(keys [][]value.Datum) [][]value.Datum {
		out := make([][]value.Datum, len(keys))
		for i, k := range keys {
			out[len(keys)-1-i] = k
		}
		return out
	}
	kinds := func(k ...value.Kind) []value.Kind { return k }
	addJoinTable(t, e, "ls", kinds(value.KindString, value.KindString), strKeys)
	addJoinTable(t, e, "rs", kinds(value.KindString, value.KindString), reversed(strKeys))
	addJoinTable(t, e, "li", kinds(value.KindInt), intKeys)
	addJoinTable(t, e, "ri", kinds(value.KindInt), reversed(intKeys))
	addJoinTable(t, e, "rf", kinds(value.KindFloat), floatKeys)

	pairs := func(res *Result) map[[2]int64]int {
		m := map[[2]int64]int{}
		for _, r := range res.Rows {
			m[[2]int64{r[0].Int(), r[1].Int()}]++
		}
		return m
	}
	for _, tc := range []struct{ name, sql string }{
		{"strings", `SELECT l.id AS lid, r.id AS rid FROM ls l, rs r WHERE l.a = r.a AND l.b = r.b`},
		{"int-int", `SELECT l.id AS lid, r.id AS rid FROM li l, ri r WHERE l.a = r.a`},
		{"int-float", `SELECT l.id AS lid, r.id AS rid FROM li l, rf r WHERE l.a = r.a`},
	} {
		want := pairs(forceJoinMethod(t, e, tc.sql, optimizer.NestedLoopJoin))
		if len(want) == 0 {
			t.Fatalf("%s: the reference join is empty", tc.name)
		}
		for _, method := range []optimizer.JoinMethod{optimizer.HashJoin, optimizer.MergeJoin, optimizer.IndexNLJoin, optimizer.NestedLoopJoin} {
			for _, dop := range []int{1, 4} {
				got := pairs(forceJoinMethodAt(t, e, tc.sql, method, dop, 8))
				for k, n := range want {
					if got[k] != n {
						t.Errorf("%s %v dop %d: pair %v ×%d, nested loops ×%d", tc.name, method, dop, k, got[k], n)
					}
				}
				for k, n := range got {
					if want[k] == 0 {
						t.Errorf("%s %v dop %d: pair %v ×%d, nested loops rejects it", tc.name, method, dop, k, n)
					}
				}
			}
		}
	}
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	e := newEnv(t)
	sql := `SELECT c.id, o.name FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`
	hash := forceJoinMethod(t, e, sql, optimizer.HashJoin)
	merge := forceJoinMethod(t, e, sql, optimizer.MergeJoin)
	if len(hash.Rows) != len(merge.Rows) {
		t.Fatalf("hash %d rows vs merge %d rows", len(hash.Rows), len(merge.Rows))
	}
	// Same multiset of (id, name) pairs.
	count := func(rows [][]value.Datum) map[string]int {
		m := map[string]int{}
		for _, r := range rows {
			m[r[0].String()+"|"+r[1].String()]++
		}
		return m
	}
	ch, cm := count(hash.Rows), count(merge.Rows)
	for k, v := range ch {
		if cm[k] != v {
			t.Fatalf("row %q: hash %d vs merge %d", k, v, cm[k])
		}
	}
}

func TestMergeJoinDuplicateKeysCrossProduct(t *testing.T) {
	e := newEnv(t)
	// Every owner id matches 4 cars: merge must emit the full group cross
	// product per key.
	res := forceJoinMethod(t, e,
		`SELECT c.id AS cid, o.id AS oid FROM car c, owner o WHERE c.ownerid = o.id`,
		optimizer.MergeJoin)
	if len(res.Rows) != 200 { // every car matches exactly one owner
		t.Errorf("rows = %d, want 200", len(res.Rows))
	}
}

func TestMergeJoinNullKeysExcluded(t *testing.T) {
	e := newEnv(t)
	tbl, _ := e.db.Table("car")
	if err := tbl.Insert([]value.Datum{value.NewInt(5000), value.Null, value.NewString("Ghost"), value.NewInt(2000), value.Null}); err != nil {
		t.Fatal(err)
	}
	res := forceJoinMethod(t, e,
		`SELECT c.id AS cid, o.id AS oid FROM car c, owner o WHERE c.ownerid = o.id`,
		optimizer.MergeJoin)
	for _, r := range res.Rows {
		if r[0].Int() == 5000 {
			t.Fatal("NULL-keyed row joined")
		}
	}
}

func TestMergeJoinChargesSortWork(t *testing.T) {
	e := newEnv(t)
	stmt, err := sqlparser.Parse(`SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := qgm.Build(stmt.(*sqlparser.SelectStmt), e)
	if err != nil {
		t.Fatal(err)
	}
	blk := q.Blocks[0]
	var cm costmodel.Meter
	ctx := &optimizer.Context{Est: &optimizer.Estimator{Cat: e.cat}, Indexes: e.indexes, Weights: costmodel.DefaultWeights(), Meter: &cm}
	plan, err := optimizer.Optimize(blk, ctx)
	if err != nil {
		t.Fatal(err)
	}
	scans := optimizer.CollectScans(plan)
	forced := &optimizer.Join{Left: scans[0], Right: scans[1], Method: optimizer.MergeJoin, Preds: blk.JoinPreds}
	var mMerge, mHash costmodel.Meter
	if _, err := Execute(blk, forced, &Runtime{DB: e.db, Indexes: e.indexes, Weights: costmodel.DefaultWeights(), Meter: &mMerge}); err != nil {
		t.Fatal(err)
	}
	forced.Method = optimizer.HashJoin
	if _, err := Execute(blk, forced, &Runtime{DB: e.db, Indexes: e.indexes, Weights: costmodel.DefaultWeights(), Meter: &mHash}); err != nil {
		t.Fatal(err)
	}
	if mMerge.Units() <= mHash.Units() {
		t.Errorf("merge join (%v units) should charge sort work above hash join (%v units) here",
			mMerge.Units(), mHash.Units())
	}
}

func TestOptimizerConsidersMergeJoin(t *testing.T) {
	// With a sort-cheap cost model, merge join should win somewhere; verify
	// the enumerator can produce it at all by zeroing hash costs upward.
	e := newEnv(t)
	stmt, err := sqlparser.Parse(`SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := qgm.Build(stmt.(*sqlparser.SelectStmt), e)
	if err != nil {
		t.Fatal(err)
	}
	w := costmodel.DefaultWeights()
	w.HashBuild, w.HashProbe = 1000, 1000 // make hashing prohibitive
	w.IndexProbe, w.IndexRow = 1e6, 1e6   // and index NL too
	var cm costmodel.Meter
	ctx := &optimizer.Context{Est: &optimizer.Estimator{Cat: e.cat}, Indexes: e.indexes, Weights: w, Meter: &cm}
	plan, err := optimizer.Optimize(q.Blocks[0], ctx)
	if err != nil {
		t.Fatal(err)
	}
	join, ok := plan.(*optimizer.Join)
	if !ok {
		t.Fatalf("plan = %T", plan)
	}
	if join.Method != optimizer.MergeJoin {
		t.Errorf("method = %v, want MergeJoin under hash-hostile weights", join.Method)
	}
	// And the plan must execute correctly.
	var m costmodel.Meter
	res, err := Execute(q.Blocks[0], plan, &Runtime{DB: e.db, Indexes: e.indexes, Weights: w, Meter: &m})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 200 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}
