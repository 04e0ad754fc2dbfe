package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/qgm"
	"repro/internal/value"
)

func intDomain(lo, hi float64) ColumnDomain {
	return ColumnDomain{Lo: lo, Hi: hi, Unit: 1, Kind: value.KindInt}
}

func eqPred(col, v string) qgm.Predicate {
	return qgm.Predicate{Column: col, Op: qgm.OpEQ, Value: value.NewString(v)}
}

func gtPred(col string, v int64) qgm.Predicate {
	return qgm.Predicate{Column: col, Op: qgm.OpGT, Value: value.NewInt(v)}
}

func TestArchiveCardinality(t *testing.T) {
	a := NewArchive(0, 0)
	if _, ok := a.Cardinality("car"); ok {
		t.Error("empty archive has no cardinalities")
	}
	a.SetCardinality("car", 12345, 1)
	if card, ok := a.Cardinality("car"); !ok || card != 12345 {
		t.Errorf("card = %v, %v", card, ok)
	}
}

func TestMaterializeAndLookupGrid(t *testing.T) {
	a := NewArchive(0, 0)
	domains := map[string]ColumnDomain{"year": intDomain(1990, 2010)}
	p := gtPred("year", 2000)
	if n := a.Materialize("car", []qgm.Predicate{p}, 0.4, 1, domains); n == 0 {
		t.Fatal("materialize touched no buckets")
	}
	if a.Histograms() != 1 {
		t.Fatalf("histograms = %d", a.Histograms())
	}
	sel, key, ok := a.GroupSelectivity("car", []qgm.Predicate{p}, 2)
	if !ok || math.Abs(sel-0.4) > 1e-6 {
		t.Errorf("sel = %v, %v", sel, ok)
	}
	if key.String() != "car(year)" {
		t.Errorf("key = %q", key)
	}
	// A different range on the same column interpolates from the same grid.
	sel, _, ok = a.GroupSelectivity("car", []qgm.Predicate{gtPred("year", 2005)}, 3)
	if !ok || sel <= 0 || sel >= 0.4 {
		t.Errorf("interpolated sel = %v, %v", sel, ok)
	}
}

func TestMultiDimGridAndMarginal(t *testing.T) {
	a := NewArchive(0, 0)
	domains := map[string]ColumnDomain{
		"make":  {Lo: value.StringCoord("Audi"), Hi: value.StringCoord("Toyota"), Unit: 1, Kind: value.KindString},
		"model": {Lo: value.StringCoord("A4"), Hi: value.StringCoord("Yaris"), Unit: 1, Kind: value.KindString},
	}
	pm := eqPred("make", "Toyota")
	pmod := eqPred("model", "Camry")
	group := []qgm.Predicate{pm, pmod}
	a.Materialize("car", group, 0.1, 1, domains)
	a.Materialize("car", []qgm.Predicate{pm}, 0.4, 1, domains)

	sel, key, ok := a.GroupSelectivity("car", group, 2)
	if !ok || math.Abs(sel-0.1) > 0.02 {
		t.Errorf("joint sel = %v (%v), want ≈0.1", sel, ok)
	}
	if key.String() != "car(make,model)" {
		t.Errorf("key = %q", key)
	}
	// Marginal query on make alone answered from a covering grid: the 1-D
	// grid on (make) is exact-match and preferred.
	sel, key, ok = a.GroupSelectivity("car", []qgm.Predicate{pm}, 3)
	if !ok || math.Abs(sel-0.4) > 0.05 {
		t.Errorf("marginal sel = %v via %q", sel, key)
	}
}

func TestMarginalFromSupersetGrid(t *testing.T) {
	a := NewArchive(0, 0)
	domains := map[string]ColumnDomain{
		"a": intDomain(0, 100),
		"b": intDomain(0, 100),
	}
	pa := gtPred("a", 50)
	pb := gtPred("b", 50)
	a.Materialize("t", []qgm.Predicate{pa, pb}, 0.25, 1, domains)
	// Only the 2-D grid exists; a query on just `a` marginalizes it.
	sel, key, ok := a.GroupSelectivity("t", []qgm.Predicate{pa}, 2)
	if !ok {
		t.Fatal("marginal lookup failed")
	}
	if key.String() != "t(a,b)" {
		t.Errorf("key = %q", key)
	}
	if sel < 0.2 || sel > 0.9 {
		t.Errorf("marginal sel = %v", sel)
	}
}

func TestNonBoxableGoesToMemo(t *testing.T) {
	a := NewArchive(0, 0)
	p := qgm.Predicate{Column: "make", Op: qgm.OpIn,
		Values: []value.Datum{value.NewString("Toyota"), value.NewString("BMW")}}
	domains := map[string]ColumnDomain{"make": {Lo: 0, Hi: 10, Unit: 1, Kind: value.KindString}}
	a.Materialize("car", []qgm.Predicate{p}, 0.5, 1, domains)
	if a.Histograms() != 0 || a.MemoEntries() != 1 {
		t.Fatalf("hist=%d memo=%d", a.Histograms(), a.MemoEntries())
	}
	sel, key, ok := a.GroupSelectivity("car", []qgm.Predicate{p}, 2)
	if !ok || sel != 0.5 {
		t.Errorf("memo sel = %v, %v", sel, ok)
	}
	if key != qgm.PredicateGroup("car", []qgm.Predicate{p}) {
		t.Errorf("key = %q", key)
	}
	// A different IN list misses the memo.
	p2 := qgm.Predicate{Column: "make", Op: qgm.OpIn, Values: []value.Datum{value.NewString("Kia")}}
	if _, _, ok := a.GroupSelectivity("car", []qgm.Predicate{p2}, 3); ok {
		t.Error("different predicate values must miss the exact-match memo")
	}
}

func TestHighDimGroupGoesToMemo(t *testing.T) {
	a := NewArchive(0, 0)
	domains := map[string]ColumnDomain{}
	var group []qgm.Predicate
	for i := 0; i < MaxGridDims+1; i++ {
		col := fmt.Sprintf("c%d", i)
		domains[col] = intDomain(0, 100)
		group = append(group, gtPred(col, 50))
	}
	a.Materialize("t", group, 0.01, 1, domains)
	if a.Histograms() != 0 || a.MemoEntries() != 1 {
		t.Errorf("hist=%d memo=%d", a.Histograms(), a.MemoEntries())
	}
}

func TestMissingDomainGoesToMemo(t *testing.T) {
	a := NewArchive(0, 0)
	a.Materialize("t", []qgm.Predicate{gtPred("a", 5)}, 0.3, 1, map[string]ColumnDomain{})
	if a.Histograms() != 0 || a.MemoEntries() != 1 {
		t.Errorf("hist=%d memo=%d", a.Histograms(), a.MemoEntries())
	}
}

func TestMemoLRUCap(t *testing.T) {
	a := NewArchive(0, 3)
	for i := 0; i < 10; i++ {
		p := qgm.Predicate{Column: "x", Op: qgm.OpIn, Values: []value.Datum{value.NewInt(int64(i))}}
		a.Materialize("t", []qgm.Predicate{p}, 0.1, int64(i), nil)
	}
	if a.MemoEntries() != 3 {
		t.Errorf("memo = %d, want 3", a.MemoEntries())
	}
	// The newest entries survive.
	p9 := qgm.Predicate{Column: "x", Op: qgm.OpIn, Values: []value.Datum{value.NewInt(9)}}
	if _, _, ok := a.GroupSelectivity("t", []qgm.Predicate{p9}, 20); !ok {
		t.Error("newest memo entry evicted")
	}
}

func TestBudgetEviction(t *testing.T) {
	a := NewArchive(12, 0) // tiny budget: a few buckets only
	for i := 0; i < 6; i++ {
		col := fmt.Sprintf("c%d", i)
		domains := map[string]ColumnDomain{col: intDomain(0, 1000)}
		// Two constraints per column → ≥3 buckets per grid.
		a.Materialize("t", []qgm.Predicate{gtPred(col, 100)}, 0.9, int64(i*2), domains)
		a.Materialize("t", []qgm.Predicate{gtPred(col, 800)}, 0.1, int64(i*2+1), domains)
	}
	if got := a.Buckets(); got > 12 {
		t.Errorf("buckets = %d, exceeds budget", got)
	}
	if a.Histograms() >= 6 {
		t.Errorf("histograms = %d, eviction never ran", a.Histograms())
	}
}

func TestUniformHistogramsEvictedFirst(t *testing.T) {
	// Budget sized so that evicting exactly one small histogram relieves
	// the pressure caused by the large third histogram (21 + 2 + 2 = 25
	// buckets against a budget of 23).
	a := NewArchive(23, 0)
	// Uniform grid on column u (constraint matches uniformity).
	domU := map[string]ColumnDomain{"u": intDomain(0, 100)}
	a.Materialize("t", []qgm.Predicate{gtPred("u", 50)}, 0.5, 100, domU) // recent but uniform
	// Skewed grid on column s.
	domS := map[string]ColumnDomain{"s": intDomain(0, 100)}
	a.Materialize("t", []qgm.Predicate{gtPred("s", 50)}, 0.99, 1, domS) // old but informative

	// Force pressure with a third histogram large enough to exceed budget.
	domB := map[string]ColumnDomain{"b": intDomain(0, 1000)}
	for i := int64(0); i < 20; i++ {
		a.Materialize("t", []qgm.Predicate{gtPred("b", 10*i)}, 0.5, 200+i, domB)
	}
	// The uniform one should have been chosen before the skewed one.
	if _, _, ok := a.GroupSelectivity("t", []qgm.Predicate{gtPred("s", 50)}, 300); !ok {
		t.Error("skewed (informative) histogram evicted before uniform one")
	}
	if _, _, ok := a.GroupSelectivity("t", []qgm.Predicate{gtPred("u", 50)}, 300); ok {
		t.Error("uniform histogram survived despite pressure")
	}
}

func TestHasStatisticAndTimestamps(t *testing.T) {
	a := NewArchive(0, 0)
	domains := map[string]ColumnDomain{"year": intDomain(1990, 2010)}
	g := []qgm.Predicate{gtPred("year", 2000)}
	if a.HasStatistic("car", []string{"year"}) {
		t.Error("empty archive claims a statistic")
	}
	a.Materialize("car", g, 0.4, 7, domains)
	if !a.HasStatistic("car", []string{"year"}) {
		t.Error("statistic not found after materialize")
	}
}

func TestAccuracyFor(t *testing.T) {
	a := NewArchive(0, 0)
	domains := map[string]ColumnDomain{"year": intDomain(1990, 2010)}
	a.Materialize("car", []qgm.Predicate{gtPred("year", 2000)}, 0.4, 1, domains)
	// Same boundary: accuracy 1.
	acc, ok := a.AccuracyFor(name("car(year)"), []qgm.Predicate{gtPred("year", 2000)})
	if !ok || math.Abs(acc-1) > 1e-9 {
		t.Errorf("boundary accuracy = %v, %v", acc, ok)
	}
	// Mid-bucket: strictly lower.
	acc2, ok := a.AccuracyFor(name("car(year)"), []qgm.Predicate{gtPred("year", 2005)})
	if !ok || acc2 >= acc {
		t.Errorf("mid-bucket accuracy = %v, want < %v", acc2, acc)
	}
	if _, ok := a.AccuracyFor(name("car(ghost)"), []qgm.Predicate{gtPred("year", 2000)}); ok {
		t.Error("unknown stat key must miss")
	}
}

func TestBoxForPredsIntersection(t *testing.T) {
	units := map[string]float64{"a": 1}
	// a > 10 AND a <= 20 → [11, 21).
	box, ok := boxForPreds([]string{"a"}, []qgm.Predicate{
		gtPred("a", 10),
		{Column: "a", Op: qgm.OpLE, Value: value.NewInt(20)},
	}, units)
	if !ok || box.Lo[0] != 11 || box.Hi[0] != 21 {
		t.Errorf("box = %+v, %v", box, ok)
	}
	// Contradiction: a > 20 AND a < 10.
	_, ok = boxForPreds([]string{"a"}, []qgm.Predicate{
		gtPred("a", 20),
		{Column: "a", Op: qgm.OpLT, Value: value.NewInt(10)},
	}, units)
	if ok {
		t.Error("contradictory group must not be boxable")
	}
}

func TestMigrateToCatalog(t *testing.T) {
	a := NewArchive(0, 0)
	cat := catalog.New()
	domains := map[string]ColumnDomain{
		"year": intDomain(1990, 2010),
		"make": {Lo: 0, Hi: 100, Unit: 1, Kind: value.KindString},
	}
	a.SetCardinality("car", 5000, 1)
	a.Materialize("car", []qgm.Predicate{gtPred("year", 2000)}, 0.4, 1, domains)
	a.Materialize("car", []qgm.Predicate{gtPred("year", 2000), eqPred("make", "T")}, 0.2, 1, domains)

	n := a.MigrateToCatalog(cat, 2)
	if n != 1 { // only the 1-D histogram migrates
		t.Errorf("migrated = %d, want 1", n)
	}
	ts, ok := cat.TableStats("car")
	if !ok {
		t.Fatal("catalog has no car stats after migration")
	}
	if ts.Cardinality != 5000 {
		t.Errorf("cardinality = %d", ts.Cardinality)
	}
	cs := ts.Columns["year"]
	if cs == nil || cs.Hist == nil {
		t.Fatal("year histogram not migrated")
	}
}
