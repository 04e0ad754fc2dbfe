package core

import (
	"testing"

	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

type mapResolver map[string]*storage.Schema

func (m mapResolver) TableSchema(name string) (*storage.Schema, bool) {
	s, ok := m[name]
	return s, ok
}

func testResolver() mapResolver {
	return mapResolver{
		"car": storage.MustSchema(
			storage.Column{Name: "id", Kind: value.KindInt},
			storage.Column{Name: "ownerid", Kind: value.KindInt},
			storage.Column{Name: "make", Kind: value.KindString},
			storage.Column{Name: "model", Kind: value.KindString},
			storage.Column{Name: "year", Kind: value.KindInt},
		),
		"owner": storage.MustSchema(
			storage.Column{Name: "id", Kind: value.KindInt},
			storage.Column{Name: "city", Kind: value.KindString},
			storage.Column{Name: "salary", Kind: value.KindFloat},
		),
	}
}

func parseQuery(t testing.TB, sql string) *qgm.Query {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := qgm.Build(stmt.(*sqlparser.SelectStmt), testResolver())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestAnalyzePaperExample mirrors §3.2: the car query with three local
// predicates yields 3 singles + 3 pairs + 1 triple = 7 groups.
func TestAnalyzePaperExample(t *testing.T) {
	q := parseQuery(t, `SELECT year FROM car WHERE make = 'Toyota' AND model = 'Corolla' AND year > 2000`)
	cands := AnalyzeQuery(q, 0)
	if len(cands) != 1 {
		t.Fatalf("candidates for %d tables, want 1", len(cands))
	}
	tc := cands[0]
	if tc.Table != "car" || len(tc.Groups) != 7 {
		t.Fatalf("groups = %d, want 7", len(tc.Groups))
	}
	// Size histogram: 3 singles, 3 pairs, 1 triple, in that order.
	sizes := map[int]int{}
	for _, g := range tc.Groups {
		sizes[len(g)]++
	}
	if sizes[1] != 3 || sizes[2] != 3 || sizes[3] != 1 {
		t.Errorf("size distribution = %v", sizes)
	}
	for i := 1; i < len(tc.Groups); i++ {
		if len(tc.Groups[i-1]) > len(tc.Groups[i]) {
			t.Error("groups not ordered smallest-first")
		}
	}
	if got := len(maxGroup(tc.Groups)); got != 3 {
		t.Errorf("full group size = %d", got)
	}
}

func TestAnalyzeMultipleTables(t *testing.T) {
	q := parseQuery(t, `SELECT c.year FROM car c, owner o
		WHERE c.ownerid = o.id AND c.make = 'Toyota' AND o.city = 'Ottawa' AND o.salary > 5000`)
	cands := AnalyzeQuery(q, 0)
	if len(cands) != 2 {
		t.Fatalf("candidates = %d tables", len(cands))
	}
	var car, owner *TableCandidates
	for i := range cands {
		switch cands[i].Table {
		case "car":
			car = &cands[i]
		case "owner":
			owner = &cands[i]
		}
	}
	if car == nil || len(car.Groups) != 1 {
		t.Errorf("car groups = %+v", car)
	}
	if owner == nil || len(owner.Groups) != 3 {
		t.Errorf("owner groups = %+v", owner)
	}
}

func TestAnalyzeSkipsPredicatelessTables(t *testing.T) {
	q := parseQuery(t, `SELECT c.year FROM car c, owner o WHERE c.ownerid = o.id`)
	if cands := AnalyzeQuery(q, 0); len(cands) != 0 {
		t.Errorf("candidates = %d, want 0 (no local predicates)", len(cands))
	}
}

func TestAnalyzeCapApplies(t *testing.T) {
	// 4 predicates with cap 3 → reduced family: 4 singles + 6 pairs + full.
	q := parseQuery(t, `SELECT year FROM car
		WHERE make = 'T' AND model = 'C' AND year > 2000 AND id < 100`)
	cands := AnalyzeQuery(q, 3)
	if len(cands[0].Groups) != 4+6+1 {
		t.Errorf("reduced groups = %d, want 11", len(cands[0].Groups))
	}
	// Under the default cap the same query gets the full powerset (15).
	cands = AnalyzeQuery(q, 0)
	if len(cands[0].Groups) != 15 {
		t.Errorf("full groups = %d, want 15", len(cands[0].Groups))
	}
}

func TestAnalyzeSelfJoinSeparateInstances(t *testing.T) {
	q := parseQuery(t, `SELECT c1.year FROM car c1, car c2
		WHERE c1.ownerid = c2.id AND c1.make = 'A' AND c2.make = 'B'`)
	cands := AnalyzeQuery(q, 0)
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want one per instance", len(cands))
	}
	if cands[0].Slot == cands[1].Slot {
		t.Error("instances share a slot")
	}
}
