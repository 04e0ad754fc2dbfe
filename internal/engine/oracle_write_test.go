package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparser"
	"repro/internal/value"
	"repro/internal/workload"
)

// The oracle's write arm. oracleModel is the oracle's own copy of the
// tables: plain rows, written by literal row loops straight off the parsed
// statement — no storage chunk, matcher, predicate kernel or index. It states
// what a write means in the dialect: INSERT appends its rows in order, a
// column it does not list is NULL; UPDATE assigns its constants to every row
// the WHERE holds for; DELETE visits positions in ascending order and, at a
// row the WHERE holds for, moves the last row into its place and looks at
// that position again, so the survivors' order is defined; an integer stored
// into a FLOAT column becomes a float, NULL fits every column, and any other
// kind mismatch — like a wrong column count or an unknown column — fails the
// whole statement, whatever the data, leaving the table as it was.
type oracleModel struct {
	names map[string][]string
	kinds map[string][]value.Kind
	rows  map[string][][]value.Datum
}

func newOracleModel(e *engine.Engine, tables ...string) *oracleModel {
	m := &oracleModel{names: map[string][]string{}, kinds: map[string][]value.Kind{}, rows: map[string][][]value.Datum{}}
	for _, name := range tables {
		tbl, _ := e.DB().Table(name)
		for _, c := range tbl.Schema().Columns() {
			m.names[name] = append(m.names[name], c.Name)
			m.kinds[name] = append(m.kinds[name], c.Kind)
		}
		_, m.rows[name] = engineTables(e)(name)
	}
	return m
}

// tables is the model as an oracleSource: a copy of the row list, since the
// oracle thins the slice it is handed.
func (m *oracleModel) tables(table string) ([]string, [][]value.Datum) {
	return m.names[table], append([][]value.Datum(nil), m.rows[table]...)
}

// stored is the value d becomes in a column of the given kind.
func oracleStored(kind value.Kind, d value.Datum) (value.Datum, error) {
	switch {
	case d.IsNull() || d.Kind() == kind:
		return d, nil
	case kind == value.KindFloat && d.Kind() == value.KindInt:
		return value.NewFloat(float64(d.Int())), nil
	}
	return d, fmt.Errorf("oracle: a %v does not fit a %v column", d.Kind(), kind)
}

// apply executes one INSERT, UPDATE or DELETE on the model and returns the
// rows affected.
func (m *oracleModel) apply(t testing.TB, sql string) (int, error) {
	t.Helper()
	parsed, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	ordinal := func(table, col string) (int, error) {
		for i, name := range m.names[table] {
			if name == col {
				return i, nil
			}
		}
		return 0, fmt.Errorf("oracle: table %s has no column %s", table, col)
	}
	holds := func(table string, where []sqlparser.Expr) func(row []value.Datum) bool {
		var tests []func(row []value.Datum) bool
		for _, expr := range where {
			col, test, literal := oracleLiteralTest(t, m.tables, expr)
			ord, err := ordinal(table, col.Column)
			if !literal || err != nil {
				t.Fatalf("oracle: %q: a DML WHERE compares a column of its table with literals", sql)
			}
			tests = append(tests, func(row []value.Datum) bool { return test(row[ord]) })
		}
		return func(row []value.Datum) bool {
			for _, test := range tests {
				if !test(row) {
					return false
				}
			}
			return true
		}
	}
	switch stmt := parsed.(type) {
	case *sqlparser.InsertStmt:
		width := len(m.names[stmt.Table])
		var ords []int
		for _, c := range stmt.Columns {
			ord, err := ordinal(stmt.Table, c)
			if err != nil {
				return 0, err
			}
			ords = append(ords, ord)
		}
		var fresh [][]value.Datum
		for _, vals := range stmt.Rows {
			if stmt.Columns == nil && len(vals) != width || stmt.Columns != nil && len(vals) != len(ords) {
				return 0, fmt.Errorf("oracle: %d values", len(vals))
			}
			row := make([]value.Datum, width)
			for i := range row {
				row[i] = value.Null
			}
			for i, v := range vals {
				ord := i
				if stmt.Columns != nil {
					ord = ords[i]
				}
				if row[ord], err = oracleStored(m.kinds[stmt.Table][ord], v); err != nil {
					return 0, err
				}
			}
			fresh = append(fresh, row)
		}
		m.rows[stmt.Table] = append(m.rows[stmt.Table], fresh...)
		return len(fresh), nil
	case *sqlparser.UpdateStmt:
		type set struct {
			ord int
			val value.Datum
		}
		var sets []set
		for _, a := range stmt.Assignments {
			ord, err := ordinal(stmt.Table, a.Column)
			if err != nil {
				return 0, err
			}
			val, err := oracleStored(m.kinds[stmt.Table][ord], a.Value)
			if err != nil {
				return 0, err
			}
			sets = append(sets, set{ord, val})
		}
		match, n := holds(stmt.Table, stmt.Where), 0
		for _, row := range m.rows[stmt.Table] {
			if match(row) {
				for _, s := range sets {
					row[s.ord] = s.val
				}
				n++
			}
		}
		return n, nil
	case *sqlparser.DeleteStmt:
		match, rows, n := holds(stmt.Table, stmt.Where), m.rows[stmt.Table], 0
		for i := 0; i < len(rows); {
			if !match(rows[i]) {
				i++
				continue
			}
			rows[i] = rows[len(rows)-1]
			rows = rows[:len(rows)-1]
			n++
		}
		m.rows[stmt.Table] = rows
		return n, nil
	}
	t.Fatalf("oracle: %q is not a write", sql)
	return 0, nil
}

// oracleWrites: the update batches of the paper's stream — price revisions,
// city booms, accident waves, recalls, fleets — each followed by reads of what
// it wrote through the indexes on car, owner and accidents (the OLTP point
// shapes, a range, a join) and now and then by a paper query; then seeded
// writes on the edge tables: every literal kind into every column kind (so
// some statements must fail), NULLs, partial column lists, WHEREs from "every
// row" to "none", with SELECTs through ta's and tb's indexes in between.
func oracleWrites(t testing.TB) (stmts []string, queries int) {
	d, err := workload.Load(engine.New(engine.Config{}), workload.Spec{Scale: 0.002, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	points := d.OLTPQueries(400, 9)
	for i, st := range d.Workload(200, 9, true) {
		if st.IsQuery {
			if i%67 == 0 { // a four-table join costs the oracle's nested loops half a second
				stmts = append(stmts, st.SQL)
			}
			continue
		}
		stmts = append(stmts, st.SQL,
			points[0].SQL, points[1].SQL, points[2].SQL,
			fmt.Sprintf(`SELECT id, make, price FROM car WHERE year > %d`, 1995+i%15),
			fmt.Sprintf(`SELECT c.id, c.price, o.city FROM car c, owner o WHERE c.ownerid = o.id AND c.year < 2003 AND o.id BETWEEN %d AND %d`, i, i+40),
			`SELECT city, COUNT(*) FROM owner GROUP BY city`,
		)
		points = points[3:]
	}
	rng := rand.New(rand.NewSource(22))
	lits := []string{"0", "2", "-1", "2.0", "0.25", "-1.5", "'b'", "''", "'zz'", "NULL", "9007199254740994", "3", "3", "1"}
	lit := func() string { return lits[rng.Intn(len(lits))] }
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	tables := map[string][]string{"ta": {"id", "k", "f", "s", "g"}, "tb": {"id", "k", "kf", "s", "h"}}
	// fit draws a literal that fits column ci of ta/tb nine times in ten.
	fit := func(ci int) string {
		if rng.Intn(10) == 0 {
			return lit()
		}
		switch ci {
		case 2:
			return []string{"0.25", "-1.5", "2", "7.75", "NULL", "0"}[rng.Intn(6)]
		case 3:
			return []string{"'a'", "'b'", "''", "'o''k'", "NULL"}[rng.Intn(5)]
		default:
			return []string{"0", "1", "2", "3", "5", "-1", "NULL", "9007199254740994"}[rng.Intn(8)]
		}
	}
	where := func(cols []string) string {
		var parts []string
		for n := rng.Intn(3); n > 0; n-- {
			c := cols[rng.Intn(len(cols))]
			switch rng.Intn(6) {
			case 0:
				parts = append(parts, fmt.Sprintf("%s BETWEEN %s AND %s", c, lit(), lit()))
			case 1:
				parts = append(parts, fmt.Sprintf("%s IN (%s, %s, %s)", c, lit(), lit(), lit()))
			default:
				parts = append(parts, fmt.Sprintf("%s %s %s", c, ops[rng.Intn(len(ops))], lit()))
			}
		}
		if rng.Intn(8) == 0 {
			parts = append(parts, "id > 100000") // no row
		}
		if len(parts) == 0 {
			return ""
		}
		return " WHERE " + strings.Join(parts, " AND ")
	}
	nextID := 1000
	for i := 0; i < 120; i++ {
		name := []string{"ta", "tb"}[rng.Intn(2)]
		cols := tables[name]
		switch rng.Intn(7) {
		case 0, 1, 2:
			var sets []string
			for n := 1 + rng.Intn(2); n > 0; n-- {
				ci := 1 + rng.Intn(4)
				sets = append(sets, fmt.Sprintf("%s = %s", cols[ci], fit(ci)))
			}
			stmts = append(stmts, fmt.Sprintf("UPDATE %s SET %s%s", name, strings.Join(sets, ", "), where(cols)))
		case 3, 4:
			stmts = append(stmts, fmt.Sprintf("DELETE FROM %s%s", name, where(cols)))
		case 5:
			var rows []string
			for n := 1 + rng.Intn(40); n > 0; n-- {
				rows = append(rows, fmt.Sprintf("(%d, %s, %s, %s, %s)", nextID, fit(1), fit(2), fit(3), fit(4)))
				nextID++
			}
			stmts = append(stmts, fmt.Sprintf("INSERT INTO %s VALUES %s", name, strings.Join(rows, ", ")))
		case 6:
			ci := 1 + rng.Intn(4)
			stmts = append(stmts, fmt.Sprintf("INSERT INTO %s (%s, id) VALUES (%s, %d), (%s, %d)", name, cols[ci], fit(ci), nextID, fit(ci), nextID+1))
			nextID += 2
		}
		stmts = append(stmts,
			`SELECT id, k, f, s, g FROM ta`+where(tables["ta"]),
			fmt.Sprintf(`SELECT id, f FROM ta WHERE g = %d`, rng.Intn(4)),
			fmt.Sprintf(`SELECT a.id AS aid, b.id AS bid, b.kf FROM ta a, tb b WHERE a.k = b.k AND a.g = %d`, rng.Intn(4)),
			`SELECT h, COUNT(*), COUNT(kf), MAX(s) FROM tb`+where(tables["tb"])+` GROUP BY h`,
		)
	}
	for _, sql := range stmts {
		if strings.HasPrefix(sql, "SELECT") {
			queries++
		}
	}
	return stmts, queries
}

// TestEngineWritesMatchOracle interleaves writes with reads: every INSERT,
// UPDATE and DELETE goes to the engine and to the oracle's model, and after
// it the written table must hold the model's rows in the model's order, the
// statement must have affected as many rows, or failed on both sides and
// changed nothing; every SELECT in between is held to the oracle's answer
// over the model, so an index that caught up wrongly, a stale cached plan or
// a write torn across column vectors shows as a wrong result. Two shapes: 16-row chunks
// with a plan cache at dop 4, and default chunks serial.
func TestEngineWritesMatchOracle(t *testing.T) {
	stmts, queries := oracleWrites(t)
	for _, cfg := range []engine.Config{
		{StorageChunkSize: 16, Parallelism: 4, PlanCacheSize: 64},
		{},
	} {
		e := oracleEngine(t, cfg)
		m := newOracleModel(e, "car", "owner", "demographics", "accidents", "ta", "tb")
		label := fmt.Sprintf("chunk size %d", cfg.StorageChunkSize)
		applied, failed := 0, 0
		for _, sql := range stmts {
			if strings.HasPrefix(sql, "SELECT") {
				res, err := e.Exec(sql)
				if err != nil {
					t.Fatalf("%s: %s: %v", label, sql, err)
				}
				checkAgainstOracle(t, label, sql, oracleSelect(t, m.tables, sql), res.Rows)
				continue
			}
			table := oracleWriteTable(t, sql)
			tbl, _ := e.DB().Table(table)
			version, udi := tbl.Version(), tbl.UDICounter()
			want, wantErr := m.apply(t, sql)
			res, err := e.Exec(sql)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: %s: engine error %v, oracle error %v", label, sql, err, wantErr)
			}
			if err != nil {
				failed++
				if tbl.Version() != version || tbl.UDICounter() != udi {
					t.Fatalf("%s: %s failed (%v) but moved the table's version or UDI counter", label, sql, err)
				}
			} else if applied++; res.RowsAffected != want {
				t.Fatalf("%s: %s affected %d rows, the oracle's loop %d", label, sql, res.RowsAffected, want)
			}
			_, got := engineTables(e)(table)
			if rows := m.rows[table]; !sameOracleRows(got, rows) {
				t.Fatalf("%s: after %s\n%s holds %d rows, the oracle's model %d, or others, or in another order", label, sql, table, len(got), len(rows))
			}
		}
		if failed == 0 || applied < 100 {
			t.Errorf("%s: %d writes applied, %d rejected — the generator should produce plenty of the first and some of the second", label, applied, failed)
		}
		t.Logf("%s: %d writes applied, %d rejected by both sides, %d SELECTs in between", label, applied, failed, queries)
	}
}

// oracleWriteTable names the table an INSERT, UPDATE or DELETE writes.
func oracleWriteTable(t testing.TB, sql string) string {
	t.Helper()
	parsed, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	switch stmt := parsed.(type) {
	case *sqlparser.InsertStmt:
		return stmt.Table
	case *sqlparser.UpdateStmt:
		return stmt.Table
	case *sqlparser.DeleteStmt:
		return stmt.Table
	}
	t.Fatalf("%q is not a write", sql)
	return ""
}

// sameOracleRows reports whether two tables hold the same values in the same
// order: kinds equal, floats bit for bit (a NaN is what was stored, −0 is not
// +0).
func sameOracleRows(a, b [][]value.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j, d := range a[i] {
			o := b[i][j]
			if d.Kind() != o.Kind() || d.Kind() != value.KindFloat && d != o ||
				d.Kind() == value.KindFloat && math.Float64bits(d.Float()) != math.Float64bits(o.Float()) {
				return false
			}
		}
	}
	return true
}
