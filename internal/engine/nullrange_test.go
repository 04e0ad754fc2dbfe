package engine_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qgm"
	"repro/internal/value"
	"repro/internal/workload"
)

// A comparison with a NULL operand selects nothing (MatchesDatum), so the
// catalog must estimate such a predicate at 0 rows — not the whole table
// (id > NULL read as an open range) or everything below the upper end
// (BETWEEN NULL AND 50 read as [-Inf, 50]).
func TestNullOperandEstimatesNothingFromCatalog(t *testing.T) {
	e := engine.New(engine.Config{})
	if _, err := workload.Load(e, workload.Spec{Scale: 0.002, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunstatsAll(); err != nil {
		t.Fatal(err)
	}
	for _, where := range []string{"id > NULL", "id BETWEEN NULL AND 50", "id BETWEEN 50 AND NULL", "id <> NULL", "year <= NULL"} {
		sql := "SELECT COUNT(*) FROM car WHERE " + where
		res, err := e.Exec("EXPLAIN " + sql)
		if err != nil {
			t.Fatal(err)
		}
		scan := ""
		for _, line := range strings.Split(res.Plan, "\n") {
			if strings.Contains(line, "filter[") {
				scan = strings.TrimSpace(line)
			}
		}
		if !strings.Contains(scan, " rows=0.0 ") {
			t.Errorf("%s: scan estimate %q, want rows=0.0", where, scan)
		}
		if got, err := e.Exec(sql); err != nil || got.Rows[0][0].Int() != 0 {
			t.Errorf("%s: COUNT(*) = %v, %v; want 0", where, got.Rows, err)
		}
	}
}

// A NULL operand must not reach a histogram: on an s_max 0 engine, the
// statement year > NULL AND price < 20000 observes fraction 0, and merging
// that as a whole-domain box would teach car(year) and car(price,year) that
// the table is empty. Its group goes to the exact-match memo instead, like
// any group that is not a box; the grids' merge counts stay where they are,
// as they do for the control year > 3000, whose box lies outside the data.
func TestNullOperandNeverReachesAGrid(t *testing.T) {
	for _, probe := range []string{"NULL", "3000"} {
		cfg := engine.Config{JITS: core.DefaultConfig()}
		cfg.JITS.SMax = 0
		e := engine.New(cfg)
		if _, err := workload.Load(e, workload.Spec{Scale: 0.002, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		merges := func() map[string]int {
			m := map[string]int{}
			for _, s := range e.JITS().Archive().Snapshot() {
				m[s.Key] = s.Merges
			}
			return m
		}
		if _, err := e.Exec("SELECT COUNT(*) FROM car WHERE year > 2000 AND price < 20000"); err != nil {
			t.Fatal(err)
		}
		before := merges()
		res, err := e.Exec("SELECT COUNT(*) FROM car WHERE year > " + probe + " AND price < 20000")
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows[0][0].Int(); n != 0 {
			t.Fatalf("year > %s: COUNT(*) = %d, want 0", probe, n)
		}
		after := merges()
		for _, stat := range []string{"car(year)", "car(price,year)"} {
			if before[stat] != after[stat] {
				t.Errorf("year > %s: %s merges %d -> %d, want unchanged", probe, stat, before[stat], after[stat])
			}
		}
		// The follow-up estimate of a query the archive can answer from its
		// grids: the control's, next to what the NULL sequence leaves.
		q := []qgm.Predicate{
			{Column: "year", Op: qgm.OpGT, Value: value.NewInt(1995)},
			{Column: "price", Op: qgm.OpLT, Value: value.NewInt(30000)},
		}
		sel, stat, ok := e.JITS().Archive().GroupSelectivity("car", q, e.Now())
		card, _ := e.JITS().Archive().Cardinality("car")
		t.Logf("year > %s: archive estimate of year > 1995 AND price < 30000: %.1f rows from %v (answered %v; true count 2045)", probe, sel*float64(card), stat, ok)
	}
}
