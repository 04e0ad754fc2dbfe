package sqlparser

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/value"
)

func parseSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", sql, stmt)
	}
	return sel
}

func TestParsePaperQuery(t *testing.T) {
	// The paper's §4.1 experiment query (slightly normalized quoting).
	sql := `SELECT o.name, driver, damage
	        FROM car as c, accidents as a, demographics as d, owner as o
	        WHERE d.ownerid = o.id AND a.carid = c.id AND c.ownerid = o.id
	          AND make = 'Toyota' AND model = 'Camry' AND city = 'Ottawa'
	          AND country = 'CA' AND salary > 5000`
	sel := parseSelect(t, sql)
	if len(sel.From) != 4 {
		t.Fatalf("From = %d tables", len(sel.From))
	}
	if sel.From[0].Table != "car" || sel.From[0].Alias != "c" {
		t.Errorf("From[0] = %+v", sel.From[0])
	}
	if len(sel.Where) != 8 {
		t.Fatalf("Where = %d conjuncts, want 8", len(sel.Where))
	}
	joins, locals := 0, 0
	for _, e := range sel.Where {
		if c, ok := e.(*Comparison); ok && c.RightIsCol {
			joins++
		} else {
			locals++
		}
	}
	if joins != 3 || locals != 5 {
		t.Errorf("joins=%d locals=%d, want 3 and 5", joins, locals)
	}
	if len(sel.Projections) != 3 {
		t.Errorf("Projections = %d", len(sel.Projections))
	}
	if sel.Projections[0].Col != (ColumnRef{Qualifier: "o", Column: "name"}) {
		t.Errorf("Projections[0] = %+v", sel.Projections[0])
	}
}

func TestParseCarQuery(t *testing.T) {
	sql := `SELECT price FROM car WHERE make = 'Toyota' AND model = 'Corolla' AND year > 2000`
	sel := parseSelect(t, sql)
	if len(sel.Where) != 3 {
		t.Fatalf("Where = %d", len(sel.Where))
	}
	cmp := sel.Where[2].(*Comparison)
	if cmp.Op != OpGT || cmp.RightVal.Int() != 2000 {
		t.Errorf("third predicate = %v", cmp)
	}
}

func TestParseBetweenAndIn(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b IN ('x', 'y', 'z')`)
	if len(sel.Where) != 2 {
		t.Fatalf("Where = %d", len(sel.Where))
	}
	b := sel.Where[0].(*Between)
	if b.Lo.Int() != 1 || b.Hi.Int() != 10 {
		t.Errorf("BETWEEN = %v", b)
	}
	in := sel.Where[1].(*InList)
	if len(in.Values) != 3 || in.Values[1].Str() != "y" {
		t.Errorf("IN = %v", in)
	}
	if !sel.Projections[0].Star {
		t.Error("expected SELECT *")
	}
}

func TestParseAggregatesGroupOrderLimit(t *testing.T) {
	sql := `SELECT make, COUNT(*), AVG(price) AS ap, MIN(year), MAX(year), SUM(damage)
	        FROM car GROUP BY make ORDER BY make DESC, ap LIMIT 10`
	sel := parseSelect(t, sql)
	if len(sel.Projections) != 6 {
		t.Fatalf("Projections = %d", len(sel.Projections))
	}
	if sel.Projections[1].Agg != AggCount || !sel.Projections[1].Star {
		t.Errorf("COUNT(*) = %+v", sel.Projections[1])
	}
	if sel.Projections[2].Agg != AggAvg || sel.Projections[2].Alias != "ap" {
		t.Errorf("AVG alias = %+v", sel.Projections[2])
	}
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].Column != "make" {
		t.Errorf("GroupBy = %v", sel.GroupBy)
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("OrderBy = %+v", sel.OrderBy)
	}
	if sel.Limit != 10 {
		t.Errorf("Limit = %d", sel.Limit)
	}
}

func TestParseDistinct(t *testing.T) {
	sel := parseSelect(t, `SELECT DISTINCT make FROM car`)
	if !sel.Distinct {
		t.Error("Distinct not set")
	}
}

func TestParseNegativeNumbersAndFloats(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM t WHERE a > -5 AND b <= 2.5 AND c BETWEEN -1.5 AND 1e3`)
	c0 := sel.Where[0].(*Comparison)
	if c0.RightVal.Int() != -5 {
		t.Errorf("a > -5 parsed as %v", c0.RightVal)
	}
	c1 := sel.Where[1].(*Comparison)
	if c1.RightVal.Float() != 2.5 {
		t.Errorf("b <= 2.5 parsed as %v", c1.RightVal)
	}
	b := sel.Where[2].(*Between)
	if b.Lo.Float() != -1.5 || b.Hi.Float() != 1000 {
		t.Errorf("BETWEEN parsed as %v..%v", b.Lo, b.Hi)
	}
}

func TestParseStringEscapes(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM t WHERE name = 'O''Brien'`)
	c := sel.Where[0].(*Comparison)
	if c.RightVal.Str() != "O'Brien" {
		t.Errorf("escaped string = %q", c.RightVal.Str())
	}
}

func TestParseParenthesizedConjunction(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM t WHERE (a = 1 AND b = 2) AND c = 3`)
	if len(sel.Where) != 3 {
		t.Errorf("parenthesized conjunction flattened to %d conjuncts", len(sel.Where))
	}
}

func TestParseJoinPredicate(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM a, b WHERE a.x = b.y`)
	c := sel.Where[0].(*Comparison)
	if !c.RightIsCol || c.RightCol != (ColumnRef{Qualifier: "b", Column: "y"}) {
		t.Errorf("join predicate = %+v", c)
	}
}

func TestParseNotEqualsSpellings(t *testing.T) {
	for _, sql := range []string{
		`SELECT * FROM t WHERE a <> 1`,
		`SELECT * FROM t WHERE a != 1`,
	} {
		sel := parseSelect(t, sql)
		c := sel.Where[0].(*Comparison)
		if c.Op != OpNE {
			t.Errorf("%q: op = %v", sql, c.Op)
		}
	}
}

func TestParseInsert(t *testing.T) {
	stmt, err := Parse(`INSERT INTO car (id, make, price) VALUES (1, 'Toyota', 25000.5), (2, 'BMW', NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if ins.Table != "car" || len(ins.Columns) != 3 || len(ins.Rows) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	if ins.Rows[0][1].Str() != "Toyota" {
		t.Errorf("row[0][1] = %v", ins.Rows[0][1])
	}
	if !ins.Rows[1][2].IsNull() {
		t.Errorf("row[1][2] should be NULL, got %v", ins.Rows[1][2])
	}
}

func TestParseInsertWithoutColumns(t *testing.T) {
	stmt, err := Parse(`INSERT INTO t VALUES (1, 2)`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if len(ins.Columns) != 0 || len(ins.Rows) != 1 {
		t.Errorf("insert = %+v", ins)
	}
}

// TestParseInsertSizesRowsOnce: every parsed row is allocated once, at its
// width — with a column list, without one, and wider than the parser's
// stack buffer — so cap == len == width.
func TestParseInsertSizesRowsOnce(t *testing.T) {
	wide := strings.Repeat("1, ", 19) + "1"
	for _, tc := range []struct {
		sql   string
		width int
	}{
		{`INSERT INTO car (id, make, price) VALUES (1, 'Toyota', 25000.5), (2, 'BMW', NULL), (3, 'Kia', 1)`, 3},
		{`INSERT INTO t VALUES (1, 2, 3, 4, 5, 6, 7, 8, 9), (9, 8, 7, 6, 5, 4, 3, 2, 1)`, 9},
		{`INSERT INTO t VALUES (1)`, 1},
		{`INSERT INTO t VALUES (` + wide + `), (` + wide + `)`, 20},
	} {
		stmt, err := Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range stmt.(*InsertStmt).Rows {
			if len(row) != tc.width || cap(row) != tc.width {
				t.Errorf("%q row %d: len %d cap %d, want %d", tc.sql, i, len(row), cap(row), tc.width)
			}
		}
	}
}

// TestParseInsertAllocs bounds a 100-row, 7-column INSERT's allocations: one
// per row, eight for the growth of the row list, four for the column list
// and a few for the statement.
func TestParseInsertAllocs(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("INSERT INTO accidents (id, carid, driver, damage, year, severity, location) VALUES ")
	for i := 0; i < 100; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'driver%05d', %d, 2004, 3, 'Ottawa')", i, i*7, i*13, 1000+i)
	}
	sql := sb.String()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Parse(sql); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100+16 {
		t.Errorf("a 100-row INSERT parses in %.0f allocations, want at most %d", allocs, 100+16)
	}
}

func TestParseUpdate(t *testing.T) {
	stmt, err := Parse(`UPDATE car SET price = 9999, color = 'red' WHERE make = 'Toyota' AND year < 2000`)
	if err != nil {
		t.Fatal(err)
	}
	up := stmt.(*UpdateStmt)
	if up.Table != "car" || len(up.Assignments) != 2 || len(up.Where) != 2 {
		t.Fatalf("update = %+v", up)
	}
	if up.Assignments[1].Column != "color" || up.Assignments[1].Value.Str() != "red" {
		t.Errorf("assignment = %+v", up.Assignments[1])
	}
}

func TestParseDelete(t *testing.T) {
	stmt, err := Parse(`DELETE FROM accidents WHERE damage > 10000`)
	if err != nil {
		t.Fatal(err)
	}
	del := stmt.(*DeleteStmt)
	if del.Table != "accidents" || len(del.Where) != 1 {
		t.Fatalf("delete = %+v", del)
	}
	stmt, err = Parse(`DELETE FROM accidents`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.(*DeleteStmt).Where) != 0 {
		t.Error("unfiltered delete should have empty Where")
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE car (id INT, make STRING, price FLOAT)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.Name != "car" || len(ct.Columns) != 3 {
		t.Fatalf("create = %+v", ct)
	}
	if ct.Columns[2] != (ColumnDef{Name: "price", Kind: value.KindFloat}) {
		t.Errorf("column = %+v", ct.Columns[2])
	}
}

func TestParseCreateIndex(t *testing.T) {
	stmt, err := Parse(`CREATE INDEX ix_make ON car (make)`)
	if err != nil {
		t.Fatal(err)
	}
	ci := stmt.(*CreateIndexStmt)
	if ci.Name != "ix_make" || ci.Table != "car" || ci.Column != "make" {
		t.Fatalf("create index = %+v", ci)
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	if _, err := Parse(`SELECT * FROM t;`); err != nil {
		t.Errorf("trailing semicolon rejected: %v", err)
	}
}

func TestParseComments(t *testing.T) {
	sql := "SELECT * -- projection\nFROM t -- the table\nWHERE a = 1"
	if _, err := Parse(sql); err != nil {
		t.Errorf("comments rejected: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		sql    string
		substr string
	}{
		{`SELECT`, "identifier"},
		{`FROM t`, "unsupported statement"},
		{`SELECT * FROM`, "identifier"},
		{`SELECT * FROM t WHERE`, "identifier"},
		{`SELECT * FROM t WHERE a = 1 OR b = 2`, "OR is not supported"},
		{`SELECT * FROM t WHERE NOT a = 1`, "NOT is not supported"},
		{`SELECT * FROM t WHERE a`, "expected an operator"},
		{`SELECT * FROM t WHERE a BETWEEN 1`, "expected AND"},
		{`SELECT * FROM t WHERE a IN ()`, "literal"},
		{`SELECT SUM(*) FROM t`, "not supported"},
		{`SELECT * FROM t extra garbage`, ""},
		{`INSERT INTO t`, "VALUES"},
		{`UPDATE t SET`, "identifier"},
		{`UPDATE t SET a 5`, "expected ="},
		{`DELETE t`, "FROM"},
		{`CREATE VIEW v`, "TABLE or INDEX"},
		{`CREATE TABLE t (a BLOB)`, "expected a type"},
		{`SELECT * FROM t LIMIT -1`, "invalid LIMIT"},
		{`SELECT * FROM t WHERE s = 'unterminated`, "unterminated"},
		{`SELECT a + b FROM t`, ""},
	}
	for _, c := range cases {
		_, err := Parse(c.sql)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c.sql)
			continue
		}
		if c.substr != "" && !strings.Contains(err.Error(), c.substr) {
			t.Errorf("Parse(%q) error = %q, want substring %q", c.sql, err, c.substr)
		}
	}
}

func TestCaseInsensitiveKeywordsLowercasedIdents(t *testing.T) {
	sel := parseSelect(t, `select Price from CAR where MAKE = 'Toyota'`)
	if sel.From[0].Table != "car" {
		t.Errorf("table = %q, want lowercased", sel.From[0].Table)
	}
	if sel.Projections[0].Col.Column != "price" {
		t.Errorf("column = %q, want lowercased", sel.Projections[0].Col.Column)
	}
	// String literal case is preserved.
	c := sel.Where[0].(*Comparison)
	if c.RightVal.Str() != "Toyota" {
		t.Errorf("literal = %q", c.RightVal.Str())
	}
}

func TestExprStringRendering(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM t WHERE a.x = 5 AND b BETWEEN 1 AND 2 AND c IN ('u','v') AND a.x = b.y`)
	want := []string{
		"a.x = 5",
		"b BETWEEN 1 AND 2",
		"c IN ('u', 'v')",
		"a.x = b.y",
	}
	for i, e := range sel.Where {
		if got := e.String(); got != want[i] {
			t.Errorf("conjunct %d String() = %q, want %q", i, got, want[i])
		}
	}
}

func FuzzParseNeverPanics(f *testing.F) {
	seeds := []string{
		`SELECT * FROM t`,
		`SELECT a FROM t WHERE b = 'x' AND c BETWEEN 1 AND 2`,
		`INSERT INTO t VALUES (1)`,
		`UPDATE t SET a = 1 WHERE b > 0`,
		`DELETE FROM t WHERE a IN (1,2,3)`,
		`CREATE TABLE t (a INT)`,
		`((((`, `'''`, `SELECT -- `,
		// Malformed shapes mirrored in testdata/fuzz seed files: the chaos
		// PR's regression corpus for parser crash bugs.
		`SELECT a FROM t WHERE b = 'unterminated`,
		`SELECT a FROM t WHERE`,
		`DELETE FROM t WHERE a IN ()`,
		`SELECT a FROM t WHERE b BETWEEN 1 2`,
		`SELECT a FROM t LIMIT banana`,
		`UPDATE t SET a = 1 WHERE b >`,
		"SELECT \x00 FROM t",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		// Must never panic; errors are fine.
		_, _ = Parse(input)
		norm, err := Normalize(input)
		checkLexedOnce(t, input, norm, err)
	})
}

func BenchmarkParsePaperQuery(b *testing.B) {
	sql := `SELECT o.name, driver, damage
	        FROM car as c, accidents as a, demographics as d, owner as o
	        WHERE d.ownerid = o.id AND a.carid = c.id AND c.ownerid = o.id
	          AND make = 'Toyota' AND model = 'Camry' AND city = 'Ottawa'
	          AND country = 'CA' AND salary > 5000`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseShowStatements(t *testing.T) {
	cases := []struct {
		sql   string
		kind  ShowKind
		last  int
		table string
	}{
		{`SHOW STATS`, ShowStats, 0, ""},
		{`show stats`, ShowStats, 0, ""},
		{`SHOW METRICS`, ShowMetrics, 0, ""},
		{`SHOW QUERIES`, ShowQueries, 0, ""},
		{`SHOW QUERIES LAST 25`, ShowQueries, 25, ""},
		{`SHOW ACCURACY`, ShowAccuracy, 0, ""},
		{`SHOW ACCURACY FOR owner`, ShowAccuracy, 0, "owner"},
		{`show accuracy for owner`, ShowAccuracy, 0, "owner"},
		{`SHOW DRIFT`, ShowDrift, 0, ""},
	}
	for _, c := range cases {
		stmt, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.sql, err)
		}
		show, ok := stmt.(*ShowStmt)
		if !ok {
			t.Fatalf("Parse(%q) = %T, want *ShowStmt", c.sql, stmt)
		}
		if show.Kind != c.kind || show.Last != c.last || show.Table != c.table {
			t.Errorf("Parse(%q) = kind %v last %d table %q, want kind %v last %d table %q",
				c.sql, show.Kind, show.Last, show.Table, c.kind, c.last, c.table)
		}
	}
	for _, bad := range []string{
		`SHOW`, `SHOW TABLES`, `SHOW QUERIES LAST`, `SHOW QUERIES LAST 0`,
		`SHOW QUERIES LAST -3`, `SHOW QUERIES LAST x`, `SHOW STATS EXTRA`,
		`SHOW ACCURACY FOR`, `SHOW ACCURACY owner`, `SHOW DRIFT FOR owner`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestParseExplainHistory(t *testing.T) {
	stmt, err := Parse(`EXPLAIN HISTORY 42`)
	if err != nil {
		t.Fatal(err)
	}
	eh, ok := stmt.(*ExplainHistoryStmt)
	if !ok {
		t.Fatalf("got %T, want *ExplainHistoryStmt", stmt)
	}
	if eh.QID != 42 {
		t.Fatalf("QID = %d, want 42", eh.QID)
	}
	// HISTORY must not swallow the ordinary EXPLAIN forms.
	if stmt, err = Parse(`EXPLAIN SELECT a FROM t`); err != nil {
		t.Fatal(err)
	} else if _, ok := stmt.(*ExplainStmt); !ok {
		t.Fatalf("EXPLAIN SELECT parsed as %T", stmt)
	}
	for _, bad := range []string{`EXPLAIN HISTORY`, `EXPLAIN HISTORY -1`, `EXPLAIN HISTORY q7`} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}
