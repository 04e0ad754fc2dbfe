package optimizer

import (
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/qgm"
	"repro/internal/value"
)

func TestDefaultSelectivityAllOps(t *testing.T) {
	cases := []struct {
		p    qgm.Predicate
		want float64
	}{
		{qgm.Predicate{Op: qgm.OpEQ, Value: value.NewInt(1)}, DefaultEqSel},
		{qgm.Predicate{Op: qgm.OpNE, Value: value.NewInt(1)}, DefaultNESel},
		{qgm.Predicate{Op: qgm.OpLT, Value: value.NewInt(1)}, DefaultRangeSel},
		{qgm.Predicate{Op: qgm.OpLE, Value: value.NewInt(1)}, DefaultRangeSel},
		{qgm.Predicate{Op: qgm.OpGT, Value: value.NewInt(1)}, DefaultRangeSel},
		{qgm.Predicate{Op: qgm.OpGE, Value: value.NewInt(1)}, DefaultRangeSel},
		{qgm.Predicate{Op: qgm.OpBetween, Lo: value.NewInt(1), Hi: value.NewInt(2)}, DefaultBetweenSel},
		{qgm.Predicate{Op: qgm.OpIn, Values: []value.Datum{value.NewInt(1), value.NewInt(2)}}, 2 * DefaultEqSel},
	}
	for _, c := range cases {
		if got := defaultSelectivity(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("default(%v) = %v, want %v", c.p.Op, got, c.want)
		}
	}
	// A huge IN list caps at 1.
	big := qgm.Predicate{Op: qgm.OpIn, Values: make([]value.Datum, 100)}
	for i := range big.Values {
		big.Values[i] = value.NewInt(int64(i))
	}
	if got := defaultSelectivity(big); got != 1 {
		t.Errorf("default(IN×100) = %v, want 1", got)
	}
}

func TestEqualitySelectivityEdgeCases(t *testing.T) {
	// Hand-built column stats: 3 tracked frequent values on a 100-row table
	// with 5 distinct values total.
	cs := &catalog.ColumnStats{
		Column: "make", Kind: value.KindString, NDV: 5, NullCount: 10,
		Min: value.NewString("Audi"), Max: value.NewString("Toyota"),
		Freq: []catalog.FreqValue{
			{Value: value.NewString("Toyota"), Count: 40},
			{Value: value.NewString("Honda"), Count: 25},
			{Value: value.NewString("Audi"), Count: 15},
		},
	}
	e := &Estimator{}
	if got := e.equalitySelectivity(cs, 100, value.NewString("Toyota")); got != 0.4 {
		t.Errorf("frequent value = %v", got)
	}
	// Untracked but in-range: remaining 10 rows over 2 remaining NDVs.
	got := e.equalitySelectivity(cs, 100, value.NewString("Kia"))
	if math.Abs(got-0.05) > 1e-12 {
		t.Errorf("untracked value = %v, want 0.05", got)
	}
	// Out of range: floored to half a row.
	if got := e.equalitySelectivity(cs, 100, value.NewString("Zonda")); got != 0.005 {
		t.Errorf("out-of-range = %v, want 0.005", got)
	}
	// NULL never matches.
	if got := e.equalitySelectivity(cs, 100, value.Null); got != 0 {
		t.Errorf("NULL = %v", got)
	}
	// Zero-cardinality table.
	if got := e.equalitySelectivity(cs, 0, value.NewString("Toyota")); got != 0 {
		t.Errorf("empty table = %v", got)
	}
	// All NDVs tracked: an untracked value cannot occur.
	cs2 := &catalog.ColumnStats{
		Column: "g", Kind: value.KindString, NDV: 1,
		Freq: []catalog.FreqValue{{Value: value.NewString("only"), Count: 100}},
	}
	if got := e.equalitySelectivity(cs2, 100, value.NewString("other")); got != 0.005 {
		t.Errorf("exhausted NDV = %v, want floor", got)
	}
}

func TestColumnNDVPrecedence(t *testing.T) {
	tdb := newTestDB(t)
	e := &Estimator{Cat: tdb.cat}
	// Catalog knows car.make has 6 distinct values (the fixture's makes).
	if got := e.columnNDV("car", "make"); got != 6 {
		t.Errorf("catalog ndv = %v", got)
	}
	// QSS with a fresh estimate wins.
	e.QSS = &ndvQSS{ndv: 7}
	if got := e.columnNDV("car", "make"); got != 7 {
		t.Errorf("qss ndv = %v", got)
	}
	// Unknown table/column: key assumption (ndv = cardinality estimate).
	e.QSS = nil
	if got := e.columnNDV("ghost", "x"); got != DefaultCardinality {
		t.Errorf("fallback ndv = %v, want %v", got, DefaultCardinality)
	}
}

type ndvQSS struct{ ndv int64 }

func (s *ndvQSS) GroupSelectivity(string, []qgm.Predicate) (float64, qgm.StatName, bool) {
	return 0, qgm.StatName{}, false
}
func (s *ndvQSS) Cardinality(string) (int64, bool)       { return 0, false }
func (s *ndvQSS) ColumnNDV(string, string) (int64, bool) { return s.ndv, true }

func TestJoinMethodStrings(t *testing.T) {
	want := map[JoinMethod]string{
		HashJoin: "HashJoin", IndexNLJoin: "IndexNLJoin",
		MergeJoin: "MergeJoin", NestedLoopJoin: "NestedLoopJoin",
		JoinMethod(99): "?",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}

func TestEstimateGroupBeyondSubsetCap(t *testing.T) {
	// More predicates than MaxSubsetPreds: the QSS probe tries only the
	// full group; with a miss everything decomposes to singles.
	tdb := newTestDB(t)
	var preds []qgm.Predicate
	for i := 0; i < MaxSubsetPreds+2; i++ {
		preds = append(preds, qgm.Predicate{
			Column: "year", Ordinal: 3, Op: qgm.OpGT, Value: value.NewInt(int64(1990 + i)),
		})
	}
	e := &Estimator{Cat: tdb.cat, QSS: &ndvQSS{}}
	est := e.EstimateGroup("car", preds)
	if est.Sel <= 0 || est.Sel > 1 {
		t.Errorf("sel = %v", est.Sel)
	}
	if est.FromQSS {
		t.Error("nothing should have come from QSS")
	}
}

func TestOptimizeEmptyBlock(t *testing.T) {
	ctx := &Context{Est: &Estimator{}, Weights: costmodel.DefaultWeights()}
	if _, err := Optimize(&qgm.Block{}, ctx); err == nil {
		t.Error("zero-table block must fail")
	}
}

func TestTableCardZeroRowTable(t *testing.T) {
	cat := catalog.New()
	cat.SetTableStats(&catalog.TableStats{Table: "empty", Cardinality: 0,
		Columns: map[string]*catalog.ColumnStats{}})
	e := &Estimator{Cat: cat}
	card, real := e.TableCard("empty")
	if !real || card != 0 {
		t.Errorf("card = %v, %v", card, real)
	}
	// Predicates on a zero-cardinality table estimate to zero.
	cs := &catalog.ColumnStats{Column: "x", Kind: value.KindInt}
	cat.SetTableStats(&catalog.TableStats{Table: "empty", Cardinality: 0,
		Columns: map[string]*catalog.ColumnStats{"x": cs}})
	est := e.EstimateGroup("empty", []qgm.Predicate{{Column: "x", Op: qgm.OpEQ, Value: value.NewInt(1)}})
	if est.Sel != 0 {
		t.Errorf("sel on empty table = %v", est.Sel)
	}
}

// TestRemovePredsByTextAndSlot pins what removePreds removes: every predicate
// of all whose slot and text equal one of sub's, so a = 1 and a = 1.0 are one
// predicate, the same text on another slot is another, and an IN list in
// another order is another. The expectation is the rule as first written,
// p.String() == s.String() && p.Slot == s.Slot, kept here as the reference.
func TestRemovePredsByTextAndSlot(t *testing.T) {
	i, f, s := value.NewInt, value.NewFloat, value.NewString
	eq := func(slot int, col string, v value.Datum) qgm.Predicate {
		return qgm.Predicate{Slot: slot, Column: col, Op: qgm.OpEQ, Value: v}
	}
	between := qgm.Predicate{Column: "year", Op: qgm.OpBetween, Lo: i(1990), Hi: f(2000)}
	in := qgm.Predicate{Column: "make", Op: qgm.OpIn, Values: []value.Datum{s("a"), s("b")}}
	inSwapped := qgm.Predicate{Column: "make", Op: qgm.OpIn, Values: []value.Datum{s("b"), s("a")}}
	all := []qgm.Predicate{
		eq(0, "year", i(1)), eq(1, "year", i(1)), eq(0, "year", f(math.Copysign(0, -1))), eq(0, "make", s("1")),
		between, in, eq(0, "year", f(1.5)),
	}
	sub := []qgm.Predicate{eq(0, "year", f(1)), eq(0, "year", i(0)), eq(0, "make", i(1)),
		{Column: "year", Op: qgm.OpBetween, Lo: f(1990), Hi: i(2000)}, inSwapped}

	reference := func(all, sub []qgm.Predicate) []string {
		var out []string
		for _, p := range all {
			found := false
			for _, q := range sub {
				if p.String() == q.String() && p.Slot == q.Slot {
					found = true
				}
			}
			if !found {
				out = append(out, p.String())
			}
		}
		return out
	}
	want := reference(all, sub)
	var got []string
	for _, p := range removePreds(append([]qgm.Predicate(nil), all...), sub) {
		got = append(got, p.String())
	}
	if !slices.Equal(got, want) {
		t.Errorf("removePreds kept %q, want %q", got, want)
	}
	// The reference itself: 1.0 matched 1 on slot 0 only, the BETWEEN
	// matched, -0.0 and the swapped IN list did not.
	if len(want) != 5 || want[0] != "year = 1" || want[1] != "year = -0" {
		t.Errorf("reference kept %q", want)
	}
}
