package qgm

import (
	"strings"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// mapResolver implements SchemaResolver over a plain map.
type mapResolver map[string]*storage.Schema

func (m mapResolver) TableSchema(name string) (*storage.Schema, bool) {
	s, ok := m[name]
	return s, ok
}

func carResolver() mapResolver {
	return mapResolver{
		"car": storage.MustSchema(
			storage.Column{Name: "id", Kind: value.KindInt},
			storage.Column{Name: "ownerid", Kind: value.KindInt},
			storage.Column{Name: "make", Kind: value.KindString},
			storage.Column{Name: "model", Kind: value.KindString},
			storage.Column{Name: "year", Kind: value.KindInt},
			storage.Column{Name: "price", Kind: value.KindFloat},
		),
		"owner": storage.MustSchema(
			storage.Column{Name: "id", Kind: value.KindInt},
			storage.Column{Name: "name", Kind: value.KindString},
			storage.Column{Name: "city", Kind: value.KindString},
			storage.Column{Name: "salary", Kind: value.KindFloat},
		),
		"accidents": storage.MustSchema(
			storage.Column{Name: "id", Kind: value.KindInt},
			storage.Column{Name: "carid", Kind: value.KindInt},
			storage.Column{Name: "damage", Kind: value.KindFloat},
		),
	}
}

func build(t *testing.T, sql string) *Block {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	q, err := Build(stmt.(*sqlparser.SelectStmt), carResolver())
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	if len(q.Blocks) != 1 {
		t.Fatalf("expected 1 block, got %d", len(q.Blocks))
	}
	return q.Blocks[0]
}

func buildErr(t *testing.T, sql string) error {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	_, err = Build(stmt.(*sqlparser.SelectStmt), carResolver())
	if err == nil {
		t.Fatalf("build %q: expected error", sql)
	}
	return err
}

func TestBuildLocalAndJoinSplit(t *testing.T) {
	b := build(t, `SELECT c.make FROM car c, owner o, accidents a
		WHERE c.ownerid = o.id AND a.carid = c.id
		  AND make = 'Toyota' AND year > 2000 AND o.salary >= 50000`)
	if len(b.Tables) != 3 {
		t.Fatalf("tables = %d", len(b.Tables))
	}
	if len(b.JoinPreds) != 2 {
		t.Fatalf("join preds = %d", len(b.JoinPreds))
	}
	if got := len(b.LocalPreds[0]); got != 2 { // car: make, year
		t.Errorf("car locals = %d", got)
	}
	if got := len(b.LocalPreds[1]); got != 1 { // owner: salary
		t.Errorf("owner locals = %d", got)
	}
	if got := len(b.LocalPreds[2]); got != 0 {
		t.Errorf("accidents locals = %d", got)
	}
}

func TestUnqualifiedResolution(t *testing.T) {
	// "make" exists only in car; "damage" only in accidents.
	b := build(t, `SELECT make FROM car, accidents WHERE carid = car.id AND damage > 100`)
	if len(b.JoinPreds) != 1 {
		t.Fatalf("join preds = %d", len(b.JoinPreds))
	}
	if b.LocalPreds[1][0].Column != "damage" {
		t.Errorf("local on accidents = %+v", b.LocalPreds[1])
	}
}

func TestAmbiguousColumn(t *testing.T) {
	err := buildErr(t, `SELECT make FROM car, owner WHERE id = 5`)
	if !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("error = %v, want ambiguous", err)
	}
}

func TestUnknownTableAliasColumn(t *testing.T) {
	for sql, want := range map[string]string{
		`SELECT x FROM ghost`:                                 "unknown table",
		`SELECT z.make FROM car c`:                            "unknown table alias",
		`SELECT c.ghost FROM car c`:                           "no column",
		`SELECT ghost FROM car`:                               "unknown column",
		`SELECT make FROM car c, car c`:                       "duplicate table alias",
		`SELECT make FROM car WHERE make < model`:             "same-table column comparison",
		`SELECT make FROM car c, owner o WHERE c.year > o.id`: "only equality joins",
	} {
		err := buildErr(t, sql)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%q error = %v, want substring %q", sql, err, want)
		}
	}
}

func TestSelfJoinWithDistinctAliases(t *testing.T) {
	b := build(t, `SELECT c1.make FROM car c1, car c2 WHERE c1.ownerid = c2.id AND c1.year > 2000`)
	if len(b.Tables) != 2 || b.Tables[0].Table != "car" || b.Tables[1].Table != "car" {
		t.Fatalf("tables = %+v", b.Tables)
	}
	if len(b.LocalPreds[0]) != 1 || len(b.LocalPreds[1]) != 0 {
		t.Errorf("locals = %v / %v", b.LocalPreds[0], b.LocalPreds[1])
	}
}

func TestDuplicateConjunctsDropped(t *testing.T) {
	b := build(t, `SELECT make FROM car WHERE year > 2000 AND year > 2000 AND make = 'X' `)
	if got := len(b.LocalPreds[0]); got != 2 {
		t.Errorf("locals = %d, want 2 (duplicate dropped)", got)
	}
}

func TestPredicateMatches(t *testing.T) {
	// row: id, ownerid, make, model, year, price
	row := []value.Datum{
		value.NewInt(1), value.NewInt(10), value.NewString("Toyota"),
		value.NewString("Camry"), value.NewInt(2005), value.NewFloat(25000),
	}
	cases := []struct {
		p    Predicate
		want bool
	}{
		{Predicate{Ordinal: 2, Op: OpEQ, Value: value.NewString("Toyota")}, true},
		{Predicate{Ordinal: 2, Op: OpEQ, Value: value.NewString("BMW")}, false},
		{Predicate{Ordinal: 2, Op: OpNE, Value: value.NewString("BMW")}, true},
		{Predicate{Ordinal: 4, Op: OpGT, Value: value.NewInt(2000)}, true},
		{Predicate{Ordinal: 4, Op: OpGT, Value: value.NewInt(2005)}, false},
		{Predicate{Ordinal: 4, Op: OpGE, Value: value.NewInt(2005)}, true},
		{Predicate{Ordinal: 4, Op: OpLT, Value: value.NewInt(2005)}, false},
		{Predicate{Ordinal: 4, Op: OpLE, Value: value.NewInt(2005)}, true},
		{Predicate{Ordinal: 4, Op: OpBetween, Lo: value.NewInt(2000), Hi: value.NewInt(2010)}, true},
		{Predicate{Ordinal: 4, Op: OpBetween, Lo: value.NewInt(2006), Hi: value.NewInt(2010)}, false},
		{Predicate{Ordinal: 3, Op: OpIn, Values: []value.Datum{value.NewString("Corolla"), value.NewString("Camry")}}, true},
		{Predicate{Ordinal: 3, Op: OpIn, Values: []value.Datum{value.NewString("Corolla")}}, false},
	}
	for _, c := range cases {
		if got := c.p.MatchesDatum(row[c.p.Ordinal]); got != c.want {
			t.Errorf("%s Matches = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPredicateMatchesNull(t *testing.T) {
	row := []value.Datum{value.Null}
	for _, op := range []PredOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE} {
		p := Predicate{Ordinal: 0, Op: op, Value: value.NewInt(1)}
		if p.MatchesDatum(row[p.Ordinal]) {
			t.Errorf("NULL %s 1 must be false", op)
		}
	}
	p := Predicate{Ordinal: 0, Op: OpEQ, Value: value.Null}
	if p.MatchesDatum(value.NewInt(1)) {
		t.Error("1 = NULL must be false")
	}
}

func TestPredicateRegion(t *testing.T) {
	eq := Predicate{Op: OpEQ, Value: value.NewInt(5)}
	if iv, ok := eq.Region(); !ok || iv.Lo != 5 || iv.Hi != 5 {
		t.Errorf("EQ region = %+v, %v", iv, ok)
	}
	gt := Predicate{Op: OpGT, Value: value.NewInt(5)}
	if iv, ok := gt.Region(); !ok || iv.Lo != 5 || !iv.LoOpen || iv.Hi < 1e307 {
		t.Errorf("GT region = %+v, %v", iv, ok)
	}
	bt := Predicate{Op: OpBetween, Lo: value.NewInt(1), Hi: value.NewInt(9)}
	if iv, ok := bt.Region(); !ok || iv.Lo != 1 || iv.Hi != 9 {
		t.Errorf("BETWEEN region = %+v, %v", iv, ok)
	}
	ne := Predicate{Op: OpNE, Value: value.NewInt(5)}
	if _, ok := ne.Region(); ok {
		t.Error("NE must not be boxable")
	}
	in := Predicate{Op: OpIn, Values: []value.Datum{value.NewInt(1)}}
	if _, ok := in.Region(); ok {
		t.Error("IN must not be boxable")
	}
}

func TestProjectionsAndAggregates(t *testing.T) {
	b := build(t, `SELECT make, COUNT(*), AVG(price) AS avgp FROM car GROUP BY make`)
	if len(b.Projections) != 3 {
		t.Fatalf("projections = %d", len(b.Projections))
	}
	if b.Projections[0].Alias != "make" || b.Projections[0].Agg != sqlparser.AggNone {
		t.Errorf("proj[0] = %+v", b.Projections[0])
	}
	if b.Projections[1].Alias != "count(*)" || !b.Projections[1].Star {
		t.Errorf("proj[1] = %+v", b.Projections[1])
	}
	if b.Projections[2].Alias != "avgp" || b.Projections[2].Agg != sqlparser.AggAvg {
		t.Errorf("proj[2] = %+v", b.Projections[2])
	}
	if len(b.GroupBy) != 1 || b.GroupBy[0].Column != "make" {
		t.Errorf("groupby = %+v", b.GroupBy)
	}
}

func TestDefaultAggregateAlias(t *testing.T) {
	b := build(t, `SELECT make, SUM(price) FROM car GROUP BY make`)
	if b.Projections[1].Alias != "sum(price)" {
		t.Errorf("alias = %q", b.Projections[1].Alias)
	}
}

func TestGroupByValidation(t *testing.T) {
	err := buildErr(t, `SELECT make, price FROM car GROUP BY make`)
	if !strings.Contains(err.Error(), "must appear in GROUP BY") {
		t.Errorf("error = %v", err)
	}
	err = buildErr(t, `SELECT *, COUNT(*) FROM car`)
	if !strings.Contains(err.Error(), "cannot be combined with aggregation") {
		t.Errorf("error = %v", err)
	}
	err = buildErr(t, `SELECT price FROM car GROUP BY ghost`)
	if !strings.Contains(err.Error(), "unknown column") {
		t.Errorf("error = %v", err)
	}
}

func TestOrderByAliasAndColumn(t *testing.T) {
	b := build(t, `SELECT make, AVG(price) AS avgp FROM car GROUP BY make ORDER BY avgp DESC, make`)
	if len(b.OrderBy) != 2 {
		t.Fatalf("orderby = %d", len(b.OrderBy))
	}
	if b.OrderBy[0].ByAlias != "avgp" || !b.OrderBy[0].Desc {
		t.Errorf("orderby[0] = %+v", b.OrderBy[0])
	}
	// "make" is itself a projection alias, so it resolves to the output
	// column (SQL resolves ORDER BY against the select list first).
	if b.OrderBy[1].ByAlias != "make" || b.OrderBy[1].Desc {
		t.Errorf("orderby[1] = %+v", b.OrderBy[1])
	}
}

func TestDuplicateOutputAlias(t *testing.T) {
	err := buildErr(t, `SELECT make, make FROM car`)
	if !strings.Contains(err.Error(), "duplicate output column") {
		t.Errorf("error = %v", err)
	}
}

func TestColumnGroupKeyCanonical(t *testing.T) {
	a := ColumnGroupKey("car", []string{"model", "make"})
	b := ColumnGroupKey("car", []string{"make", "model"})
	if a != b {
		t.Errorf("keys differ: %q vs %q", a, b)
	}
	if a != "car(make,model)" {
		t.Errorf("key = %q", a)
	}
}

func TestGroupColumnsDedup(t *testing.T) {
	preds := []Predicate{
		{Column: "year", Op: OpGT, Value: value.NewInt(2000)},
		{Column: "year", Op: OpLT, Value: value.NewInt(2010)},
		{Column: "make", Op: OpEQ, Value: value.NewString("Toyota")},
	}
	cols := GroupColumns(preds)
	if len(cols) != 2 || cols[0] != "make" || cols[1] != "year" {
		t.Errorf("GroupColumns = %v", cols)
	}
}

func TestPredicateGroupKeyOrderInsensitive(t *testing.T) {
	p1 := Predicate{Column: "make", Op: OpEQ, Value: value.NewString("Toyota")}
	p2 := Predicate{Column: "year", Op: OpGT, Value: value.NewInt(2000)}
	a := PredicateGroupKey("car", []Predicate{p1, p2})
	b := PredicateGroupKey("car", []Predicate{p2, p1})
	if a != b {
		t.Errorf("keys differ: %q vs %q", a, b)
	}
}

func TestJoinGraph(t *testing.T) {
	b := build(t, `SELECT c.make FROM car c, owner o, accidents a
		WHERE c.ownerid = o.id AND a.carid = c.id`)
	adj := b.JoinGraph()
	if len(adj[0]) != 2 { // car joins owner and accidents
		t.Errorf("adj[0] = %v", adj[0])
	}
	if len(adj[1]) != 1 || len(adj[2]) != 1 {
		t.Errorf("adj = %v", adj)
	}
}

func TestLimitAndDistinctCarryThrough(t *testing.T) {
	b := build(t, `SELECT DISTINCT make FROM car LIMIT 5`)
	if !b.Distinct || b.Limit != 5 {
		t.Errorf("distinct=%v limit=%d", b.Distinct, b.Limit)
	}
	b = build(t, `SELECT make FROM car`)
	if b.Limit != -1 {
		t.Errorf("limit = %d, want -1", b.Limit)
	}
}

// TestDuplicateConjunctsByText pins what counts as a repeated conjunct: the
// same text on the same table instance. a = 1 and a = 1.0 render alike and
// collapse, as does a repeated BETWEEN; 0 and -0.0, 1 and '1', and an IN list
// in another order do not; a repeated join predicate collapses, its mirror
// image does not.
func TestDuplicateConjunctsByText(t *testing.T) {
	b := build(t, `SELECT c.make FROM car c, owner o WHERE c.year = 1 AND c.year = 1.0
		AND c.price BETWEEN 1 AND 2 AND c.price BETWEEN 1.0 AND 2
		AND c.id = 0 AND c.id = -0.0 AND c.make = '1' AND c.make = 1
		AND c.model IN ('a','b') AND c.model IN ('b','a') AND o.id = 0
		AND c.ownerid = o.id AND c.ownerid = o.id AND o.id = c.ownerid`)
	var got []string
	for _, p := range b.LocalPreds[0] {
		got = append(got, p.String())
	}
	want := []string{"year = 1", "price BETWEEN 1 AND 2", "id = 0", "id = -0", "make = '1'", "make = 1",
		"model IN ('a','b')", "model IN ('b','a')"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("car locals:\n got %q\nwant %q", got, want)
	}
	if len(b.LocalPreds[1]) != 1 {
		t.Errorf("owner locals = %v, want o.id = 0 (c.id = 0 is on another slot)", b.LocalPreds[1])
	}
	if len(b.JoinPreds) != 2 || b.JoinPreds[0].String() != "[0].ownerid = [1].id" || b.JoinPreds[1].String() != "[1].id = [0].ownerid" {
		t.Errorf("join preds = %v", b.JoinPreds)
	}
}
