package engine

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/qgm"
)

// TestSortAliasSurvives: an output column whose alias starts with "__sort"
// is an ordinary column. The executor used to find its hidden ORDER BY
// columns by that name prefix and strip them after sorting — together with
// any result column that happened to be spelled the same way.
func TestSortAliasSurvives(t *testing.T) {
	e := seedEngine(t, Config{})
	res := mustExec(t, e, `SELECT name AS __sorted FROM owner WHERE id < 3 ORDER BY __sorted`)
	if !reflect.DeepEqual(res.Columns, []string{"__sorted"}) || len(res.Rows) != 3 || len(res.Rows[0]) != 1 {
		t.Fatalf("alias key: columns %v, rows %v", res.Columns, res.Rows)
	}
	for i, want := range []string{"o0", "o1", "o2"} {
		if got := res.Rows[i][0].Str(); got != want {
			t.Fatalf("alias key: row %d = %q, want %q", i, got, want)
		}
	}

	// A base-column key beside it is sorted on and never shown.
	res = mustExec(t, e, `SELECT id, name AS __sorted FROM owner WHERE id < 3 ORDER BY salary DESC`)
	if !reflect.DeepEqual(res.Columns, []string{"id", "__sorted"}) || len(res.Rows) != 3 {
		t.Fatalf("base-column key: columns %v, rows %v", res.Columns, res.Rows)
	}
	for i, want := range []int64{2, 1, 0} {
		if row := res.Rows[i]; len(row) != 2 || row[0].Int() != want || row[1].Str() == "" {
			t.Fatalf("base-column key: row %d = %v, want id %d and its name", i, row, want)
		}
	}
	res = mustExec(t, e, `SELECT id, name AS __sorted FROM owner WHERE id < 3 ORDER BY id`)
	if !reflect.DeepEqual(res.Columns, []string{"id", "__sorted"}) || len(res.Rows) != 3 || len(res.Rows[0]) != 2 {
		t.Fatalf("projected key: columns %v, rows %v", res.Columns, res.Rows)
	}
}

// TestDistinctOrderByMustBeProjected: SELECT DISTINCT ordered by a column it
// does not output used to dedup over the hidden sort column too, returning
// one row per (city, salary) pair. It is rejected when the query is built,
// as SQL does; ordering by what is selected still works.
func TestDistinctOrderByMustBeProjected(t *testing.T) {
	e := seedEngine(t, Config{})
	_, err := e.Exec(`SELECT DISTINCT city FROM owner ORDER BY salary`)
	if !errors.Is(err, qgm.ErrDistinctOrderBy) {
		t.Fatalf("DISTINCT city ORDER BY salary: err = %v, want qgm.ErrDistinctOrderBy", err)
	}
	for _, sql := range []string{
		`SELECT DISTINCT city FROM owner ORDER BY city DESC`,
		`SELECT DISTINCT city AS c FROM owner ORDER BY c DESC`,
		`SELECT DISTINCT o.city FROM owner o ORDER BY o.city DESC`,
	} {
		res := mustExec(t, e, sql)
		var got []string
		for _, row := range res.Rows {
			got = append(got, row[0].Str())
		}
		if want := []string{"Toronto", "Ottawa", "Boston"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %v, want %v", sql, got, want)
		}
	}
	if res := mustExec(t, e, `SELECT DISTINCT * FROM owner ORDER BY salary`); len(res.Rows) != 200 {
		t.Fatalf("DISTINCT * ORDER BY salary: %d rows, want 200", len(res.Rows))
	}
}
