package executor

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/index"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// env is a miniature engine: storage, catalog, indexes, optimizer context.
type env struct {
	db      *storage.Database
	cat     *catalog.Catalog
	indexes *index.Set
}

func (e *env) TableSchema(name string) (*storage.Schema, bool) {
	tbl, ok := e.db.Table(name)
	if !ok {
		return nil, false
	}
	return tbl.Schema(), true
}

func newEnv(t testing.TB) *env {
	t.Helper()
	db := storage.NewDatabase(0)
	car, err := db.CreateTable("car", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "ownerid", Kind: value.KindInt},
		storage.Column{Name: "make", Kind: value.KindString},
		storage.Column{Name: "year", Kind: value.KindInt},
		storage.Column{Name: "price", Kind: value.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	makes := []string{"Toyota", "Toyota", "Honda", "BMW", "Audi"}
	rows := make([][]value.Datum, 0, 200)
	for i := 0; i < 200; i++ {
		price := value.NewFloat(float64(10000 + 100*i))
		if i == 0 {
			price = value.Null
		}
		rows = append(rows, []value.Datum{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 50)),
			value.NewString(makes[i%5]),
			value.NewInt(int64(1990 + i%20)),
			price,
		})
	}
	if err := car.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}

	owner, err := db.CreateTable("owner", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "name", Kind: value.KindString},
		storage.Column{Name: "city", Kind: value.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"Ottawa", "Toronto"}
	rows = rows[:0]
	for i := 0; i < 50; i++ {
		rows = append(rows, []value.Datum{
			value.NewInt(int64(i)),
			value.NewString("owner" + string(rune('a'+i%26))),
			value.NewString(cities[i%2]),
		})
	}
	if err := owner.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}

	cat := catalog.New()
	var m costmodel.Meter
	for _, name := range []string{"car", "owner"} {
		tbl, _ := db.Table(name)
		st, err := catalog.Runstats(tbl, 1, &m, costmodel.DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		cat.SetTableStats(st)
	}
	ixs := index.NewSet()
	if _, err := ixs.Create(owner, "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := ixs.Create(car, "year"); err != nil {
		t.Fatal(err)
	}
	return &env{db: db, cat: cat, indexes: ixs}
}

// runSQL optimizes and executes one SELECT.
func runSQL(t testing.TB, e *env, sql string) (*Result, *costmodel.Meter) {
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
	rt := &Runtime{DB: e.db, Indexes: e.indexes, Weights: costmodel.DefaultWeights(), Meter: &execMeter}
	res, err := Execute(blk, plan, rt)
	if err != nil {
		t.Fatal(err)
	}
	return res, &execMeter
}

func TestSimpleFilterScan(t *testing.T) {
	e := newEnv(t)
	res, meter := runSQL(t, e, `SELECT id FROM car WHERE make = 'Toyota'`)
	if len(res.Rows) != 80 { // 2 of 5 makes
		t.Errorf("rows = %d, want 80", len(res.Rows))
	}
	if len(res.Columns) != 1 || res.Columns[0] != "id" {
		t.Errorf("columns = %v", res.Columns)
	}
	if meter.Units() == 0 {
		t.Error("execution charged nothing")
	}
	if len(res.Actuals) != 1 {
		t.Fatalf("actuals = %d", len(res.Actuals))
	}
	a := res.Actuals[0]
	if a.BaseRows != 200 || a.Matched != 80 {
		t.Errorf("actual = %+v", a)
	}
	if math.Abs(a.ActualSelectivity()-0.4) > 1e-9 {
		t.Errorf("actual sel = %v", a.ActualSelectivity())
	}
}

func TestSelectStar(t *testing.T) {
	e := newEnv(t)
	res, _ := runSQL(t, e, `SELECT * FROM owner WHERE id < 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if len(res.Columns) != 3 || res.Columns[0] != "owner.id" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestIndexScanMatchesFullScan(t *testing.T) {
	e := newEnv(t)
	// year = 1990 is selective; plan should use the index but the result
	// must equal a straightforward filter.
	res, _ := runSQL(t, e, `SELECT id FROM car WHERE year = 1990 AND make = 'Toyota'`)
	want := 0
	tbl, _ := e.db.Table("car")
	tbl.Snapshot().Scan(func(_ int, row []value.Datum) bool {
		if row[3].Int() == 1990 && row[2].Str() == "Toyota" {
			want++
		}
		return true
	})
	if len(res.Rows) != want {
		t.Errorf("rows = %d, want %d", len(res.Rows), want)
	}
}

func TestHashJoin(t *testing.T) {
	e := newEnv(t)
	res, _ := runSQL(t, e, `SELECT c.id, o.name FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`)
	// Owners 0,2,4,...,48 live in Ottawa (25 owners); each owns 4 cars.
	if len(res.Rows) != 100 {
		t.Errorf("rows = %d, want 100", len(res.Rows))
	}
}

func TestJoinWithNullKeys(t *testing.T) {
	e := newEnv(t)
	tbl, _ := e.db.Table("car")
	if err := tbl.Insert([]value.Datum{value.NewInt(999), value.Null, value.NewString("Ghost"), value.NewInt(2000), value.Null}); err != nil {
		t.Fatal(err)
	}
	res, _ := runSQL(t, e, `SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND c.make = 'Ghost'`)
	if len(res.Rows) != 0 {
		t.Errorf("NULL join key produced %d rows", len(res.Rows))
	}
}

func TestThreeWayJoinCorrectness(t *testing.T) {
	e := newEnv(t)
	// Self-check a 3-way join against a nested-loop reference computation.
	acc, err := e.db.CreateTable("accidents", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "carid", Kind: value.KindInt},
		storage.Column{Name: "damage", Kind: value.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := acc.Insert([]value.Datum{
			value.NewInt(int64(i)), value.NewInt(int64(i % 250)), value.NewFloat(float64(i * 37 % 5000)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var m costmodel.Meter
	st, err := catalog.Runstats(acc, 1, &m, costmodel.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	e.cat.SetTableStats(st)

	res, _ := runSQL(t, e, `SELECT a.id FROM car c, owner o, accidents a
		WHERE c.ownerid = o.id AND a.carid = c.id AND o.city = 'Toronto' AND a.damage > 2500`)

	// Reference computation.
	want := 0
	carT, _ := e.db.Table("car")
	ownerT, _ := e.db.Table("owner")
	ownerCity := map[int64]string{}
	ownerT.Snapshot().Scan(func(_ int, r []value.Datum) bool {
		ownerCity[r[0].Int()] = r[2].Str()
		return true
	})
	carOwner := map[int64]int64{}
	carT.Snapshot().Scan(func(_ int, r []value.Datum) bool {
		carOwner[r[0].Int()] = r[1].Int()
		return true
	})
	acc.Snapshot().Scan(func(_ int, r []value.Datum) bool {
		if r[2].Float() <= 2500 {
			return true
		}
		oid, ok := carOwner[r[1].Int()]
		if !ok {
			return true
		}
		if ownerCity[oid] == "Toronto" {
			want++
		}
		return true
	})
	if len(res.Rows) != want {
		t.Errorf("rows = %d, want %d", len(res.Rows), want)
	}
}

func TestAggregation(t *testing.T) {
	e := newEnv(t)
	res, _ := runSQL(t, e, `SELECT make, COUNT(*), AVG(price), MIN(year), MAX(year) FROM car GROUP BY make ORDER BY make`)
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d, want 4", len(res.Rows))
	}
	// Sorted: Audi, BMW, Honda, Toyota (x2 slots... no: distinct makes).
	if res.Rows[0][0].Str() != "Audi" {
		t.Errorf("first group = %v", res.Rows[0][0])
	}
	var toyota []value.Datum
	for _, r := range res.Rows {
		if r[0].Str() == "Toyota" {
			toyota = r
		}
	}
	if toyota == nil || toyota[1].Int() != 80 {
		t.Fatalf("toyota row = %v", toyota)
	}
	// Toyota rows are i ≡ 0,1 (mod 5): i%20 ∈ {0,1,5,6,10,11,15,16}.
	if toyota[3].Int() != 1990 || toyota[4].Int() != 2006 {
		t.Errorf("min/max year = %v/%v", toyota[3], toyota[4])
	}
}

func TestCountStarVsCountColumnWithNulls(t *testing.T) {
	e := newEnv(t)
	res, _ := runSQL(t, e, `SELECT COUNT(*), COUNT(price), SUM(year) FROM car`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].Int() != 200 {
		t.Errorf("COUNT(*) = %v", res.Rows[0][0])
	}
	if res.Rows[0][1].Int() != 199 { // one NULL price
		t.Errorf("COUNT(price) = %v", res.Rows[0][1])
	}
	if res.Rows[0][2].Kind() != value.KindInt {
		t.Errorf("SUM(year) kind = %v, want int", res.Rows[0][2].Kind())
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	e := newEnv(t)
	res, _ := runSQL(t, e, `SELECT COUNT(*), SUM(price), MIN(year) FROM car WHERE make = 'Nonexistent'`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("COUNT(*) = %v", res.Rows[0][0])
	}
	if !res.Rows[0][1].IsNull() || !res.Rows[0][2].IsNull() {
		t.Errorf("SUM/MIN over empty = %v/%v, want NULLs", res.Rows[0][1], res.Rows[0][2])
	}
	// With GROUP BY: no rows at all.
	res, _ = runSQL(t, e, `SELECT make, COUNT(*) FROM car WHERE make = 'Nonexistent' GROUP BY make`)
	if len(res.Rows) != 0 {
		t.Errorf("grouped empty = %d rows", len(res.Rows))
	}
}

func TestOrderByWithDirectionAndLimit(t *testing.T) {
	e := newEnv(t)
	res, _ := runSQL(t, e, `SELECT id, year FROM car ORDER BY year DESC, id ASC LIMIT 5`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].Int() != 2009 {
		t.Errorf("top year = %v", res.Rows[0][1])
	}
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if prev[1].Int() < cur[1].Int() {
			t.Error("year not descending")
		}
		if prev[1].Int() == cur[1].Int() && prev[0].Int() > cur[0].Int() {
			t.Error("id tiebreak not ascending")
		}
	}
	// Hidden sort columns must not leak.
	if len(res.Columns) != 2 {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestOrderByNonProjectedColumn(t *testing.T) {
	e := newEnv(t)
	res, _ := runSQL(t, e, `SELECT id FROM car WHERE year >= 2008 ORDER BY year`)
	if len(res.Columns) != 1 || res.Columns[0] != "id" {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestOrderByAggregateAlias(t *testing.T) {
	e := newEnv(t)
	res, _ := runSQL(t, e, `SELECT make, COUNT(*) AS n FROM car GROUP BY make ORDER BY n DESC, make`)
	if res.Rows[0][0].Str() != "Toyota" || res.Rows[0][1].Int() != 80 {
		t.Errorf("top group = %v", res.Rows[0])
	}
}

func TestDistinct(t *testing.T) {
	e := newEnv(t)
	res, _ := runSQL(t, e, `SELECT DISTINCT make FROM car`)
	if len(res.Rows) != 4 {
		t.Errorf("distinct makes = %d, want 4", len(res.Rows))
	}
}

func TestLimitZero(t *testing.T) {
	e := newEnv(t)
	res, _ := runSQL(t, e, `SELECT id FROM car LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestBadPlansCostMoreThanGoodPlans(t *testing.T) {
	// The linchpin of the reproduction: execute the same query with a
	// deliberately bad join order (built by hand) and with the optimizer's
	// choice, and verify the meter shows the difference.
	e := newEnv(t)
	stmt, err := sqlparser.Parse(`SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa' AND o.id < 10`)
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
	good, err := optimizer.Optimize(blk, ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Bad plan: cartesian nested loop, filters on top.
	scans := optimizer.CollectScans(good)
	if len(scans) != 2 {
		t.Fatalf("scans = %d", len(scans))
	}
	carScan := &optimizer.Scan{Slot: scans[0].Slot, Alias: scans[0].Alias, Table: scans[0].Table, Preds: scans[0].Preds, Card: scans[0].Card, Tr: scans[0].Tr}
	ownScan := &optimizer.Scan{Slot: scans[1].Slot, Alias: scans[1].Alias, Table: scans[1].Table, Preds: scans[1].Preds, Card: scans[1].Card, Tr: scans[1].Tr}
	bad := &optimizer.Join{
		Left: carScan, Right: ownScan, Method: optimizer.NestedLoopJoin,
		Preds: blk.JoinPreds,
	}

	w := costmodel.DefaultWeights()
	var goodMeter, badMeter costmodel.Meter
	resGood, err := Execute(blk, good, &Runtime{DB: e.db, Indexes: e.indexes, Weights: w, Meter: &goodMeter})
	if err != nil {
		t.Fatal(err)
	}
	resBad, err := Execute(blk, bad, &Runtime{DB: e.db, Indexes: e.indexes, Weights: w, Meter: &badMeter})
	if err != nil {
		t.Fatal(err)
	}
	if len(resGood.Rows) != len(resBad.Rows) {
		t.Fatalf("plans disagree: %d vs %d rows", len(resGood.Rows), len(resBad.Rows))
	}
	if badMeter.Units() < goodMeter.Units()*1.5 {
		t.Errorf("bad plan %v units should dwarf good plan %v units", badMeter.Units(), goodMeter.Units())
	}
}

func TestIndexNLJoinActualsConditioned(t *testing.T) {
	e := newEnv(t)
	// Force an index NL join: owner has an index on id.
	stmt, err := sqlparser.Parse(`SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND c.make = 'BMW' AND o.city = 'Ottawa'`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := qgm.Build(stmt.(*sqlparser.SelectStmt), e)
	if err != nil {
		t.Fatal(err)
	}
	blk := q.Blocks[0]
	var carScanNode, ownScanNode *optimizer.Scan
	var cm costmodel.Meter
	ctx := &optimizer.Context{Est: &optimizer.Estimator{Cat: e.cat}, Indexes: e.indexes, Weights: costmodel.DefaultWeights(), Meter: &cm}
	plan, err := optimizer.Optimize(blk, ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range optimizer.CollectScans(plan) {
		if s.Table == "car" {
			carScanNode = s
		} else {
			ownScanNode = s
		}
	}
	forced := &optimizer.Join{
		Left:   carScanNode,
		Right:  ownScanNode,
		Method: optimizer.IndexNLJoin,
		Preds:  blk.JoinPreds,
	}
	var m costmodel.Meter
	res, err := Execute(blk, forced, &Runtime{DB: e.db, Indexes: e.indexes, Weights: costmodel.DefaultWeights(), Meter: &m})
	if err != nil {
		t.Fatal(err)
	}
	// 40 BMWs owned by 50 owners; Ottawa owners are even ids.
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	var inner *ScanActual
	for i := range res.Actuals {
		if res.Actuals[i].Table == "owner" {
			inner = &res.Actuals[i]
		}
	}
	if inner == nil {
		t.Fatal("no inner actual recorded")
	}
	if !inner.Conditioned {
		t.Error("inner actual must be marked conditioned")
	}
	if sel := inner.ActualSelectivity(); sel < 0 || sel > 1 {
		t.Errorf("conditioned sel = %v", sel)
	}
}

func BenchmarkHashJoinExecution(b *testing.B) {
	e := newEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSQL(b, e, `SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`)
	}
}
