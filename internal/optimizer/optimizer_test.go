package optimizer

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/index"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// --- fixtures ---------------------------------------------------------

type testDB struct {
	db      *storage.Database
	cat     *catalog.Catalog
	indexes *index.Set
}

func (t *testDB) TableSchema(name string) (*storage.Schema, bool) {
	tbl, ok := t.db.Table(name)
	if !ok {
		return nil, false
	}
	return tbl.Schema(), true
}

// newTestDB builds car (1000 rows, skewed makes), owner (500 rows) with
// full catalog statistics and an index on car.ownerid and owner.id.
func newTestDB(t testing.TB) *testDB {
	t.Helper()
	db := storage.NewDatabase(0)
	car, err := db.CreateTable("car", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "ownerid", Kind: value.KindInt},
		storage.Column{Name: "make", Kind: value.KindString},
		storage.Column{Name: "year", Kind: value.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	makes := []string{"Toyota", "Toyota", "Toyota", "Toyota", "Honda", "Honda", "BMW", "Audi", "Ford", "Kia"}
	rows := make([][]value.Datum, 0, 1000)
	for i := 0; i < 1000; i++ {
		rows = append(rows, []value.Datum{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 500)),
			value.NewString(makes[i%10]),
			value.NewInt(int64(1990 + i%20)),
		})
	}
	if err := car.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}

	owner, err := db.CreateTable("owner", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "city", Kind: value.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	rows = rows[:0]
	cities := []string{"Ottawa", "Toronto", "Waterloo", "Kingston", "Hull"}
	for i := 0; i < 500; i++ {
		rows = append(rows, []value.Datum{
			value.NewInt(int64(i)),
			value.NewString(cities[i%5]),
		})
	}
	if err := owner.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}

	cat := catalog.New()
	var m costmodel.Meter
	for _, tbl := range []*storage.Table{car, owner} {
		st, err := catalog.Runstats(tbl, 1, &m, costmodel.DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		cat.SetTableStats(st)
	}
	ixs := index.NewSet()
	if _, err := ixs.Create(car, "ownerid"); err != nil {
		t.Fatal(err)
	}
	if _, err := ixs.Create(owner, "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := ixs.Create(car, "year"); err != nil {
		t.Fatal(err)
	}
	return &testDB{db: db, cat: cat, indexes: ixs}
}

func buildBlock(t testing.TB, tdb *testDB, sql string) *qgm.Block {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := qgm.Build(stmt.(*sqlparser.SelectStmt), tdb)
	if err != nil {
		t.Fatal(err)
	}
	return q.Blocks[0]
}

func newCtx(tdb *testDB) (*Context, *costmodel.Meter) {
	var m costmodel.Meter
	return &Context{
		Est:     &Estimator{Cat: tdb.cat},
		Indexes: tdb.indexes,
		Weights: costmodel.DefaultWeights(),
		Meter:   &m,
	}, &m
}

// fakeQSS serves exact selectivities for registered predicate-group keys.
type fakeQSS struct {
	sels  map[string]float64
	cards map[string]int64
}

func (f *fakeQSS) GroupSelectivity(table string, preds []qgm.Predicate) (float64, qgm.StatName, bool) {
	key := qgm.PredicateGroupKey(table, preds)
	s, ok := f.sels[key]
	if !ok {
		return 0, qgm.StatName{}, false
	}
	return s, qgm.ColumnGroup(table, qgm.GroupColumns(preds)), true
}

func (f *fakeQSS) Cardinality(table string) (int64, bool) {
	c, ok := f.cards[table]
	return c, ok
}

func (f *fakeQSS) ColumnNDV(table, column string) (int64, bool) { return 0, false }

// --- estimator tests --------------------------------------------------

func TestTableCardSources(t *testing.T) {
	tdb := newTestDB(t)
	e := &Estimator{Cat: tdb.cat}
	if card, real := e.TableCard("car"); !real || card != 1000 {
		t.Errorf("car card = %v, %v", card, real)
	}
	if card, real := e.TableCard("ghost"); real || card != DefaultCardinality {
		t.Errorf("ghost card = %v, %v", card, real)
	}
	e.QSS = &fakeQSS{cards: map[string]int64{"car": 777}}
	if card, real := e.TableCard("car"); !real || card != 777 {
		t.Errorf("QSS card = %v, %v (QSS must win)", card, real)
	}
}

func TestEqualityFromFrequentValues(t *testing.T) {
	tdb := newTestDB(t)
	e := &Estimator{Cat: tdb.cat}
	// Toyota is 40% of car.make and within the top-10 frequent values.
	p := qgm.Predicate{Slot: 0, Column: "make", Ordinal: 2, Op: qgm.OpEQ, Value: value.NewString("Toyota")}
	est := e.EstimateGroup("car", []qgm.Predicate{p})
	if math.Abs(est.Sel-0.4) > 1e-9 {
		t.Errorf("sel(make=Toyota) = %v, want 0.4", est.Sel)
	}
	if est.FromQSS {
		t.Error("estimate wrongly marked FromQSS")
	}
	if len(est.StatList) != 1 || est.StatList[0].String() != "car(make)" {
		t.Errorf("statlist = %v", est.StatList)
	}
}

func TestEqualityUnknownValueFloored(t *testing.T) {
	tdb := newTestDB(t)
	e := &Estimator{Cat: tdb.cat}
	p := qgm.Predicate{Column: "make", Ordinal: 2, Op: qgm.OpEQ, Value: value.NewString("Lada")}
	est := e.EstimateGroup("car", []qgm.Predicate{p})
	if est.Sel <= 0 || est.Sel > 0.01 {
		t.Errorf("sel(make=Lada) = %v, want tiny but positive", est.Sel)
	}
}

func TestRangeFromHistogram(t *testing.T) {
	tdb := newTestDB(t)
	e := &Estimator{Cat: tdb.cat}
	// year uniform in 1990..2009; year >= 2000 covers half.
	p := qgm.Predicate{Column: "year", Ordinal: 3, Op: qgm.OpGE, Value: value.NewInt(2000)}
	est := e.EstimateGroup("car", []qgm.Predicate{p})
	if math.Abs(est.Sel-0.5) > 0.05 {
		t.Errorf("sel(year>=2000) = %v, want ≈0.5", est.Sel)
	}
	// year > 2004 covers a quarter: open bound handled via unit shift.
	p = qgm.Predicate{Column: "year", Ordinal: 3, Op: qgm.OpGT, Value: value.NewInt(2004)}
	est = e.EstimateGroup("car", []qgm.Predicate{p})
	if math.Abs(est.Sel-0.25) > 0.05 {
		t.Errorf("sel(year>2004) = %v, want ≈0.25", est.Sel)
	}
	// BETWEEN endpoints inclusive.
	p = qgm.Predicate{Column: "year", Ordinal: 3, Op: qgm.OpBetween, Lo: value.NewInt(1990), Hi: value.NewInt(2009)}
	est = e.EstimateGroup("car", []qgm.Predicate{p})
	if math.Abs(est.Sel-1.0) > 0.05 {
		t.Errorf("sel(year between 1990 and 2009) = %v, want ≈1", est.Sel)
	}
}

func TestNEAndInSelectivity(t *testing.T) {
	tdb := newTestDB(t)
	e := &Estimator{Cat: tdb.cat}
	ne := qgm.Predicate{Column: "make", Ordinal: 2, Op: qgm.OpNE, Value: value.NewString("Toyota")}
	est := e.EstimateGroup("car", []qgm.Predicate{ne})
	if math.Abs(est.Sel-0.6) > 1e-9 {
		t.Errorf("sel(make<>Toyota) = %v, want 0.6", est.Sel)
	}
	in := qgm.Predicate{Column: "make", Ordinal: 2, Op: qgm.OpIn,
		Values: []value.Datum{value.NewString("Toyota"), value.NewString("BMW")}}
	est = e.EstimateGroup("car", []qgm.Predicate{in})
	if math.Abs(est.Sel-0.5) > 1e-9 { // 0.4 + 0.1
		t.Errorf("sel(make IN (Toyota, BMW)) = %v, want 0.5", est.Sel)
	}
}

func TestDefaultsWithoutStats(t *testing.T) {
	e := &Estimator{Cat: catalog.New()}
	eq := qgm.Predicate{Column: "x", Op: qgm.OpEQ, Value: value.NewInt(1)}
	rng := qgm.Predicate{Column: "x", Op: qgm.OpGT, Value: value.NewInt(1)}
	bt := qgm.Predicate{Column: "x", Op: qgm.OpBetween, Lo: value.NewInt(1), Hi: value.NewInt(2)}
	if est := e.EstimateGroup("t", []qgm.Predicate{eq}); est.Sel != DefaultEqSel {
		t.Errorf("default eq = %v", est.Sel)
	}
	if est := e.EstimateGroup("t", []qgm.Predicate{rng}); est.Sel != DefaultRangeSel {
		t.Errorf("default range = %v", est.Sel)
	}
	if est := e.EstimateGroup("t", []qgm.Predicate{bt}); est.Sel != DefaultBetweenSel {
		t.Errorf("default between = %v", est.Sel)
	}
	est := e.EstimateGroup("t", []qgm.Predicate{eq})
	if len(est.StatList) != 1 || est.StatList[0].Kind() != qgm.StatDefault {
		t.Errorf("statlist = %v", est.StatList)
	}
}

func TestIndependenceMultiplication(t *testing.T) {
	tdb := newTestDB(t)
	e := &Estimator{Cat: tdb.cat}
	pm := qgm.Predicate{Column: "make", Ordinal: 2, Op: qgm.OpEQ, Value: value.NewString("Toyota")}
	py := qgm.Predicate{Column: "year", Ordinal: 3, Op: qgm.OpGE, Value: value.NewInt(2000)}
	est := e.EstimateGroup("car", []qgm.Predicate{pm, py})
	if math.Abs(est.Sel-0.2) > 0.05 { // 0.4 × 0.5 under independence
		t.Errorf("joint sel = %v, want ≈0.2", est.Sel)
	}
	if len(est.StatList) != 2 {
		t.Errorf("statlist = %v", est.StatList)
	}
}

func TestQSSOverridesIndependence(t *testing.T) {
	tdb := newTestDB(t)
	pm := qgm.Predicate{Column: "make", Ordinal: 2, Op: qgm.OpEQ, Value: value.NewString("Toyota")}
	py := qgm.Predicate{Column: "year", Ordinal: 3, Op: qgm.OpGE, Value: value.NewInt(2000)}
	qss := &fakeQSS{sels: map[string]float64{
		qgm.PredicateGroupKey("car", []qgm.Predicate{pm, py}): 0.38, // perfectly correlated
	}}
	e := &Estimator{Cat: tdb.cat, QSS: qss}
	est := e.EstimateGroup("car", []qgm.Predicate{pm, py})
	if est.Sel != 0.38 {
		t.Errorf("QSS sel = %v, want 0.38", est.Sel)
	}
	if !est.FromQSS {
		t.Error("FromQSS not set")
	}
	if len(est.StatList) != 1 || est.StatList[0].String() != "car(make,year)" {
		t.Errorf("statlist = %v", est.StatList)
	}
}

func TestQSSPartialSubsetUsed(t *testing.T) {
	tdb := newTestDB(t)
	pm := qgm.Predicate{Column: "make", Ordinal: 2, Op: qgm.OpEQ, Value: value.NewString("Toyota")}
	py := qgm.Predicate{Column: "year", Ordinal: 3, Op: qgm.OpGE, Value: value.NewInt(2000)}
	pi := qgm.Predicate{Column: "id", Ordinal: 0, Op: qgm.OpLT, Value: value.NewInt(100)}
	// QSS knows only the (make, year) pair.
	qss := &fakeQSS{sels: map[string]float64{
		qgm.PredicateGroupKey("car", []qgm.Predicate{pm, py}): 0.38,
	}}
	e := &Estimator{Cat: tdb.cat, QSS: qss}
	est := e.EstimateGroup("car", []qgm.Predicate{pm, py, pi})
	// 0.38 (QSS pair) × ≈0.1 (id < 100 from histogram).
	if est.Sel < 0.02 || est.Sel > 0.06 {
		t.Errorf("sel = %v, want ≈0.038", est.Sel)
	}
	if !est.FromQSS || len(est.StatList) != 2 {
		t.Errorf("est = %+v", est)
	}
}

func TestJoinSelectivityContainment(t *testing.T) {
	tdb := newTestDB(t)
	e := &Estimator{Cat: tdb.cat}
	jp := qgm.JoinPredicate{LeftSlot: 0, LeftCol: "ownerid", RightSlot: 1, RightCol: "id"}
	sel := e.JoinSelectivity(jp, "car", "owner")
	// ndv(car.ownerid)=500, ndv(owner.id)=500 → 1/500.
	if math.Abs(sel-1.0/500) > 1e-9 {
		t.Errorf("join sel = %v, want 1/500", sel)
	}
}

// --- plan enumeration tests --------------------------------------------

func TestOptimizeSingleTableFullScan(t *testing.T) {
	tdb := newTestDB(t)
	blk := buildBlock(t, tdb, `SELECT make FROM car WHERE make = 'Toyota'`)
	ctx, meter := newCtx(tdb)
	plan, err := Optimize(blk, ctx)
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := plan.(*Scan)
	if !ok {
		t.Fatalf("plan = %T", plan)
	}
	if scan.IndexColumn != "" {
		t.Errorf("no index exists on make; got index scan on %q", scan.IndexColumn)
	}
	if math.Abs(scan.Rows()-400) > 20 {
		t.Errorf("est rows = %v, want ≈400", scan.Rows())
	}
	if meter.Units() == 0 {
		t.Error("optimization charged nothing")
	}
	if scan.Tr == nil || scan.Tr.ColGrp.String() != "car(make)" {
		t.Errorf("trace = %+v", scan.Tr)
	}
}

func TestOptimizeSelectiveIndexScan(t *testing.T) {
	tdb := newTestDB(t)
	// year = 1990 matches 5%; the index on year should win over a full scan.
	blk := buildBlock(t, tdb, `SELECT make FROM car WHERE year = 1990`)
	ctx, _ := newCtx(tdb)
	plan, err := Optimize(blk, ctx)
	if err != nil {
		t.Fatal(err)
	}
	scan := plan.(*Scan)
	if scan.IndexColumn != "year" {
		t.Errorf("expected index scan on year, got %q", scan.IndexColumn)
	}
	if scan.IndexPred == nil || scan.IndexPred.Column != "year" {
		t.Errorf("index pred = %+v", scan.IndexPred)
	}
}

func TestOptimizeUnselectivePrefersFullScan(t *testing.T) {
	tdb := newTestDB(t)
	// year >= 1990 matches everything; index would be silly.
	blk := buildBlock(t, tdb, `SELECT make FROM car WHERE year >= 1990`)
	ctx, _ := newCtx(tdb)
	plan, err := Optimize(blk, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if scan := plan.(*Scan); scan.IndexColumn != "" {
		t.Errorf("expected full scan, got index on %q", scan.IndexColumn)
	}
}

func TestOptimizeTwoTableJoin(t *testing.T) {
	tdb := newTestDB(t)
	blk := buildBlock(t, tdb, `SELECT make FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`)
	ctx, _ := newCtx(tdb)
	plan, err := Optimize(blk, ctx)
	if err != nil {
		t.Fatal(err)
	}
	join, ok := plan.(*Join)
	if !ok {
		t.Fatalf("plan = %T\n%s", plan, ExplainAnnotated(plan, 1, nil))
	}
	if len(join.Preds) != 1 {
		t.Errorf("join preds = %d", len(join.Preds))
	}
	// Output estimate: 1000 × 100 × 1/500 = 200.
	if math.Abs(join.Rows()-200) > 40 {
		t.Errorf("join rows = %v, want ≈200", join.Rows())
	}
	if got := len(plan.Slots()); got != 2 {
		t.Errorf("slots = %d", got)
	}
}

func TestOptimizeFourTableConnectedPlan(t *testing.T) {
	tdb := newTestDB(t)
	// Add two more tables joined in a chain.
	acc, err := tdb.db.CreateTable("accidents", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "carid", Kind: value.KindInt},
		storage.Column{Name: "damage", Kind: value.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	demo, err := tdb.db.CreateTable("demographics", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "ownerid", Kind: value.KindInt},
		storage.Column{Name: "age", Kind: value.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := acc.Insert([]value.Datum{value.NewInt(int64(i)), value.NewInt(int64(i % 1000)), value.NewFloat(float64(i % 5000))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		if err := demo.Insert([]value.Datum{value.NewInt(int64(i)), value.NewInt(int64(i)), value.NewInt(int64(20 + i%50))}); err != nil {
			t.Fatal(err)
		}
	}
	var m costmodel.Meter
	for _, tbl := range []*storage.Table{acc, demo} {
		st, err := catalog.Runstats(tbl, 1, &m, costmodel.DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		tdb.cat.SetTableStats(st)
	}
	blk := buildBlock(t, tdb, `SELECT c.make FROM car c, owner o, accidents a, demographics d
		WHERE c.ownerid = o.id AND a.carid = c.id AND d.ownerid = o.id AND o.city = 'Ottawa'`)
	ctx, _ := newCtx(tdb)
	plan, err := Optimize(blk, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plan.Slots()); got != 4 {
		t.Fatalf("slots = %d\n%s", got, ExplainAnnotated(plan, 1, nil))
	}
	// No cartesian products in a fully connected query.
	var check func(Node) bool
	check = func(n Node) bool {
		j, ok := n.(*Join)
		if !ok {
			return true
		}
		if j.Method == NestedLoopJoin {
			return false
		}
		return check(j.Left) && check(j.Right)
	}
	if !check(plan) {
		t.Errorf("plan contains cartesian join:\n%s", ExplainAnnotated(plan, 1, nil))
	}
	scans := CollectScans(plan)
	if len(scans) != 4 {
		t.Errorf("CollectScans = %d", len(scans))
	}
	for i := 1; i < len(scans); i++ {
		if scans[i-1].Slot >= scans[i].Slot {
			t.Error("CollectScans not slot-sorted")
		}
	}
}

func TestOptimizeCartesianFallback(t *testing.T) {
	tdb := newTestDB(t)
	blk := buildBlock(t, tdb, `SELECT make FROM car, owner`)
	ctx, _ := newCtx(tdb)
	plan, err := Optimize(blk, ctx)
	if err != nil {
		t.Fatal(err)
	}
	join := plan.(*Join)
	if join.Method != NestedLoopJoin {
		t.Errorf("method = %v, want NestedLoopJoin", join.Method)
	}
	if math.Abs(join.Rows()-500000) > 1 {
		t.Errorf("rows = %v, want 500000", join.Rows())
	}
}

func TestBetterStatsChangeJoinOrder(t *testing.T) {
	tdb := newTestDB(t)
	blk := buildBlock(t, tdb, `SELECT make FROM car c, owner o WHERE c.ownerid = o.id AND c.make = 'Kia' AND c.year = 1993`)
	// Without QSS: independence says 0.1 × 0.05 = 0.005 (≈5 rows).
	ctxNo, _ := newCtx(tdb)
	planNo, err := Optimize(blk, ctxNo)
	if err != nil {
		t.Fatal(err)
	}
	// With QSS claiming the pair is perfectly anti-correlated (0 rows) the
	// car side becomes even smaller; with QSS claiming 0.1 (fully
	// correlated) the estimate grows 20×.
	pm := blk.LocalPreds[0][0]
	py := blk.LocalPreds[0][1]
	qss := &fakeQSS{sels: map[string]float64{
		qgm.PredicateGroupKey("car", []qgm.Predicate{pm, py}): 0.1,
	}}
	ctxQSS, _ := newCtx(tdb)
	ctxQSS.Est.QSS = qss
	planQSS, err := Optimize(blk, ctxQSS)
	if err != nil {
		t.Fatal(err)
	}
	scanNo := CollectScans(planNo)[0]
	scanQSS := CollectScans(planQSS)[0]
	if !(scanQSS.Rows() > scanNo.Rows()*10) {
		t.Errorf("QSS rows %v should be ≈20x independence rows %v", scanQSS.Rows(), scanNo.Rows())
	}
}

func TestExplainRendering(t *testing.T) {
	tdb := newTestDB(t)
	blk := buildBlock(t, tdb, `SELECT make FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`)
	ctx, _ := newCtx(tdb)
	plan, err := Optimize(blk, ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := ExplainAnnotated(plan, 1, nil)
	for _, want := range []string{"Join", "car", "owner", "rows="} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestGreedyEnumerateManyTables(t *testing.T) {
	// 12 tables chained by joins exceeds the DP budget: greedy must still
	// produce a complete connected plan.
	tdb := newTestDB(t)
	names := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10", "t11"}
	var m costmodel.Meter
	for _, n := range names {
		tbl, err := tdb.db.CreateTable(n, storage.MustSchema(
			storage.Column{Name: "id", Kind: value.KindInt},
			storage.Column{Name: "fk", Kind: value.KindInt},
		))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := tbl.Insert([]value.Datum{value.NewInt(int64(i)), value.NewInt(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		st, err := catalog.Runstats(tbl, 1, &m, costmodel.DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		tdb.cat.SetTableStats(st)
	}
	var sb strings.Builder
	sb.WriteString("SELECT t0.id FROM ")
	sb.WriteString(strings.Join(names, ", "))
	sb.WriteString(" WHERE ")
	for i := 1; i < len(names); i++ {
		if i > 1 {
			sb.WriteString(" AND ")
		}
		sb.WriteString(names[i-1] + ".id = " + names[i] + ".fk")
	}
	blk := buildBlock(t, tdb, sb.String())
	ctx, _ := newCtx(tdb)
	plan, err := Optimize(blk, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plan.Slots()); got != 12 {
		t.Errorf("slots = %d, want 12", got)
	}
}

func BenchmarkOptimizeFourTables(b *testing.B) {
	tdb := newTestDB(b)
	blk := buildBlock(b, tdb, `SELECT make FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa' AND c.make = 'Toyota'`)
	ctx, _ := newCtx(tdb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(blk, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplain renders a two-table plan with local filters, serial and
// under a Gather header — the text a statement ships in Result.Plan.
func BenchmarkExplain(b *testing.B) {
	tdb := newTestDB(b)
	blk := buildBlock(b, tdb, `SELECT make FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa' AND c.make = 'Toyota' AND c.year BETWEEN 1995 AND 2004`)
	ctx, _ := newCtx(tdb)
	plan, err := Optimize(blk, ctx)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchPlanText = ExplainAnnotated(plan, workers, nil)
			}
		})
	}
}

var benchPlanText string
