package qgm

import (
	"strings"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

func whereOf(t *testing.T, sql string) []sqlparser.Expr {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	switch s := stmt.(type) {
	case *sqlparser.UpdateStmt:
		return s.Where
	case *sqlparser.DeleteStmt:
		return s.Where
	default:
		t.Fatalf("unexpected statement %T", stmt)
		return nil
	}
}

func TestBuildLocalPredicates(t *testing.T) {
	schema := storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "make", Kind: value.KindString},
		storage.Column{Name: "year", Kind: value.KindInt},
	)
	where := whereOf(t, `UPDATE car SET year = 1 WHERE make = 'Toyota' AND year BETWEEN 1990 AND 2000 AND id IN (1, 2, 3)`)
	preds, err := BuildLocalPredicates(schema, where)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 {
		t.Fatalf("preds = %d", len(preds))
	}
	if preds[0].Op != OpEQ || preds[0].Column != "make" || preds[0].Ordinal != 1 {
		t.Errorf("preds[0] = %+v", preds[0])
	}
	if preds[1].Op != OpBetween || preds[1].Lo.Int() != 1990 {
		t.Errorf("preds[1] = %+v", preds[1])
	}
	if preds[2].Op != OpIn || len(preds[2].Values) != 3 {
		t.Errorf("preds[2] = %+v", preds[2])
	}
	// Evaluation works against schema-shaped rows.
	row := []value.Datum{value.NewInt(2), value.NewString("Toyota"), value.NewInt(1995)}
	for _, p := range preds {
		if !p.MatchesDatum(row[p.Ordinal]) {
			t.Errorf("%s should match", p)
		}
	}
}

func TestBuildLocalPredicatesErrors(t *testing.T) {
	schema := storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "other", Kind: value.KindInt},
	)
	cases := map[string]string{
		`DELETE FROM t WHERE ghost = 1`:                        "unknown column",
		`DELETE FROM t WHERE id = other`:                       "column comparison",
		`DELETE FROM t WHERE id BETWEEN 1 AND 2 AND ghost > 3`: "unknown column",
	}
	for sql, want := range cases {
		_, err := BuildLocalPredicates(schema, whereOf(t, sql))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error = %v, want %q", sql, err, want)
		}
	}
	// Empty conjunction is fine.
	preds, err := BuildLocalPredicates(schema, nil)
	if err != nil || len(preds) != 0 {
		t.Errorf("empty where: %v, %v", preds, err)
	}
}

func TestPredOpStrings(t *testing.T) {
	want := map[PredOp]string{
		OpEQ: "=", OpNE: "<>", OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">=",
		OpBetween: "BETWEEN", OpIn: "IN", PredOp(99): "?",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
}

func TestPredicateStringForms(t *testing.T) {
	cases := []struct {
		p    Predicate
		want string
	}{
		{Predicate{Column: "a", Op: OpLE, Value: value.NewInt(5)}, "a <= 5"},
		{Predicate{Column: "a", Op: OpBetween, Lo: value.NewInt(1), Hi: value.NewInt(2)}, "a BETWEEN 1 AND 2"},
		{Predicate{Column: "a", Op: OpIn, Values: []value.Datum{value.NewInt(1), value.NewInt(2)}}, "a IN (1,2)"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	jp := JoinPredicate{LeftSlot: 0, LeftCol: "x", RightSlot: 1, RightCol: "y"}
	if jp.String() != "[0].x = [1].y" {
		t.Errorf("join String() = %q", jp.String())
	}
}

func TestRegionAllComparisons(t *testing.T) {
	for _, c := range []struct {
		op     PredOp
		wantLo float64
		loOpen bool
		wantHi float64
		hiOpen bool
	}{
		{OpLT, -1e308, false, 7, true},
		{OpLE, -1e308, false, 7, false},
		{OpGE, 7, false, 1e308, false},
	} {
		p := Predicate{Op: c.op, Value: value.NewInt(7)}
		iv, ok := p.Region()
		if !ok {
			t.Fatalf("%v not boxable", c.op)
		}
		if iv.Lo != c.wantLo || iv.Hi != c.wantHi || iv.LoOpen != c.loOpen || iv.HiOpen != c.hiOpen {
			t.Errorf("%v region = %+v", c.op, iv)
		}
	}
}

func TestCompareOpToPredOpAll(t *testing.T) {
	pairs := map[sqlparser.CompareOp]PredOp{
		sqlparser.OpEQ: OpEQ, sqlparser.OpNE: OpNE,
		sqlparser.OpLT: OpLT, sqlparser.OpLE: OpLE,
		sqlparser.OpGT: OpGT, sqlparser.OpGE: OpGE,
	}
	for in, want := range pairs {
		got, err := compareOpToPredOp(in)
		if err != nil {
			t.Errorf("compareOpToPredOp(%v): %v", in, err)
		}
		if got != want {
			t.Errorf("compareOpToPredOp(%v) = %v, want %v", in, got, want)
		}
	}
	if _, err := compareOpToPredOp(sqlparser.CompareOp(99)); err == nil {
		t.Error("unknown operator must return an error, not a zero op")
	}
}
