package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/feedback"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// correlatedDB: car table where model is fully determined by make, so that
// independence-based estimates are badly wrong and JITS-collected joint
// selectivities are exact.
func correlatedDB(t testing.TB) (*storage.Database, *storage.Table) {
	t.Helper()
	db := storage.NewDatabase(0)
	car, err := db.CreateTable("car", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "make", Kind: value.KindString},
		storage.Column{Name: "model", Kind: value.KindString},
		storage.Column{Name: "year", Kind: value.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]string{
		{"Toyota", "Camry"}, {"Toyota", "Camry"}, {"Toyota", "Corolla"},
		{"Honda", "Civic"}, {"BMW", "X5"},
	}
	rows := make([][]value.Datum, 0, 5000)
	for i := 0; i < 5000; i++ {
		p := pairs[i%len(pairs)]
		rows = append(rows, []value.Datum{
			value.NewInt(int64(i)),
			value.NewString(p[0]),
			value.NewString(p[1]),
			value.NewInt(int64(1990 + i%20)),
		})
	}
	if err := car.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return db, car
}

type dbResolver struct{ db *storage.Database }

func (r dbResolver) TableSchema(name string) (*storage.Schema, bool) {
	tbl, ok := r.db.Table(name)
	if !ok {
		return nil, false
	}
	return tbl.Schema(), true
}

func buildQuery(t testing.TB, db *storage.Database, sql string) *qgm.Query {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := qgm.Build(stmt.(*sqlparser.SelectStmt), dbResolver{db})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestPrepareDisabled(t *testing.T) {
	db, _ := correlatedDB(t)
	j := New(Config{Enabled: false}, feedback.NewStore(), catalog.New(), nil)
	q := buildQuery(t, db, `SELECT id FROM car WHERE make = 'Toyota'`)
	var m costmodel.Meter
	qs, rep, err := j.PrepareBudgeted(context.Background(), q, db, 1, &m, costmodel.DefaultWeights(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if qs != nil {
		t.Error("disabled JITS must return nil stats")
	}
	if len(rep.Tables) != 0 {
		t.Error("disabled JITS must not analyze")
	}
	if m.Units() != 0 {
		t.Error("disabled JITS must not charge")
	}
}

func TestPrepareCollectsExactJointSelectivity(t *testing.T) {
	db, _ := correlatedDB(t)
	cfg := DefaultConfig()
	cfg.ForceCollect = true
	j := New(cfg, feedback.NewStore(), catalog.New(), nil)
	q := buildQuery(t, db, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	var m costmodel.Meter
	qs, rep, err := j.PrepareBudgeted(context.Background(), q, db, 1, &m, costmodel.DefaultWeights(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if qs == nil || rep.CollectedTables() != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if m.Units() == 0 {
		t.Error("collection must charge the compilation meter")
	}
	// Fresh selectivities for all 3 groups (2 singles + pair).
	if qs.FreshGroups() != 3 {
		t.Errorf("fresh groups = %d, want 3", qs.FreshGroups())
	}
	blk := q.Blocks[0]
	group := blk.LocalPreds[0]
	sel, key, ok := qs.GroupSelectivity("car", group)
	if !ok {
		t.Fatal("joint selectivity not available")
	}
	// True joint selectivity is 0.4 (2 of 5 pattern rows); under
	// independence it would be 0.6 × 0.4 = 0.24.
	if math.Abs(sel-0.4) > 0.05 {
		t.Errorf("joint sel = %v, want ≈0.4", sel)
	}
	if key.String() != "car(make,model)" {
		t.Errorf("key = %q", key)
	}
	if card, ok := qs.Cardinality("car"); !ok || card != 5000 {
		t.Errorf("card = %v, %v", card, ok)
	}
}

func TestPrepareResetsUDIAndFillsArchive(t *testing.T) {
	db, car := correlatedDB(t)
	// Dirty the table.
	if _, err := car.UpdateWhere(
		storage.MatchRows(func(r []value.Datum) bool { return r[0].Int() < 100 }),
		[]storage.Assignment{{Ordinal: 3, Value: value.NewInt(2020)}},
	); err != nil {
		t.Fatal(err)
	}
	if car.UDICounter().Total() == 0 {
		t.Fatal("UDI should be nonzero before prepare")
	}
	cfg := DefaultConfig()
	cfg.ForceCollect = true
	j := New(cfg, feedback.NewStore(), catalog.New(), nil)
	q := buildQuery(t, db, `SELECT id FROM car WHERE make = 'Toyota' AND year > 2000`)
	var m costmodel.Meter
	_, rep, err := j.PrepareBudgeted(context.Background(), q, db, 1, &m, costmodel.DefaultWeights(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if car.UDICounter().Total() != 0 {
		t.Error("UDI not reset after collection")
	}
	// ForceCollect materializes everything: archive has histograms now.
	if j.Archive().Histograms() == 0 {
		t.Error("archive empty after forced materialization")
	}
	if rep.Tables[0].GroupsMaterialized != 3 {
		t.Errorf("materialized = %d, want 3", rep.Tables[0].GroupsMaterialized)
	}
}

func TestArchiveReusedAcrossQueries(t *testing.T) {
	db, _ := correlatedDB(t)
	cfg := DefaultConfig()
	cfg.ForceCollect = true
	j := New(cfg, feedback.NewStore(), catalog.New(), nil)

	// Query 1 materializes (make, model) stats.
	q1 := buildQuery(t, db, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	var m costmodel.Meter
	if _, _, err := j.PrepareBudgeted(context.Background(), q1, db, 1, &m, costmodel.DefaultWeights(), nil); err != nil {
		t.Fatal(err)
	}

	// A later engine run (without collecting) can read the archive for a
	// constant it has observed; an unseen string constant is declined (the
	// categorical coordinate space does not interpolate meaningfully).
	seen := []qgm.Predicate{
		{Column: "make", Op: qgm.OpEQ, Value: value.NewString("Toyota")},
	}
	sel, _, ok := j.Archive().GroupSelectivity("car", seen, 5)
	if !ok {
		t.Fatal("archive cannot answer a previously observed constant")
	}
	if sel <= 0 || sel > 1 {
		t.Errorf("sel = %v", sel)
	}
	unseen := []qgm.Predicate{
		{Column: "make", Op: qgm.OpEQ, Value: value.NewString("Lada")},
	}
	if _, _, ok := j.Archive().GroupSelectivity("car", unseen, 6); ok {
		t.Error("archive must decline an unseen string constant inside the domain")
	}
}

func TestSensitivitySkipsFreshTables(t *testing.T) {
	db, _ := correlatedDB(t)
	cfg := DefaultConfig()
	cfg.SMax = 0.5
	hist := feedback.NewStore()
	j := New(cfg, hist, catalog.New(), nil)
	q := buildQuery(t, db, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	var m costmodel.Meter
	w := costmodel.DefaultWeights()

	perfectFeedback := func() {
		j.Feedback([]Observation{{
			Table:    "car",
			ColGrp:   name("car(make,model)"),
			StatList: names("car(make,model)"),
			EstSel:   0.4, ActualSel: 0.4, BaseCard: 5000,
		}})
	}

	// First prepare: cold → collects; nothing materializes yet (empty
	// history gives Algorithm 4 no usefulness evidence).
	_, rep1, err := j.PrepareBudgeted(context.Background(), q, db, 1, &m, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CollectedTables() != 1 {
		t.Fatalf("first prepare must collect: %+v", rep1)
	}
	if rep1.Tables[0].GroupsMaterialized != 0 {
		t.Errorf("first prepare materialized %d groups", rep1.Tables[0].GroupsMaterialized)
	}
	perfectFeedback()

	// Second prepare: the one-shot statistic is gone (never materialized),
	// so its accuracy evidence is void → collect again; the recurring
	// column group now bootstraps into the archive.
	_, rep2, err := j.PrepareBudgeted(context.Background(), q, db, 2, &m, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CollectedTables() != 1 {
		t.Fatalf("second prepare must re-collect: %+v", rep2.Tables[0].Scores)
	}
	if rep2.Tables[0].GroupsMaterialized == 0 {
		t.Error("second prepare must materialize the recurring groups")
	}
	perfectFeedback()

	// Third prepare: accurate archived statistics, no churn → skip.
	_, rep3, err := j.PrepareBudgeted(context.Background(), q, db, 3, &m, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.CollectedTables() != 0 {
		t.Errorf("third prepare should skip: %+v", rep3.Tables[0].Scores)
	}
}

func TestSelfJoinSharesOneSample(t *testing.T) {
	db, _ := correlatedDB(t)
	cfg := DefaultConfig()
	cfg.ForceCollect = true
	j := New(cfg, feedback.NewStore(), catalog.New(), nil)
	q := buildQuery(t, db, `SELECT c1.id FROM car c1, car c2
		WHERE c1.id = c2.id AND c1.make = 'Toyota' AND c2.make = 'Honda'`)
	var m costmodel.Meter
	_, rep, err := j.PrepareBudgeted(context.Background(), q, db, 1, &m, costmodel.DefaultWeights(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// One table entry (merged), two groups (one per instance predicate).
	if len(rep.Tables) != 1 {
		t.Fatalf("tables = %d, want 1 merged", len(rep.Tables))
	}
	if rep.Tables[0].GroupsEvaluated != 2 {
		t.Errorf("groups = %d, want 2", rep.Tables[0].GroupsEvaluated)
	}
}

func TestFeedbackRecordsHistory(t *testing.T) {
	hist := feedback.NewStore()
	j := New(DefaultConfig(), hist, catalog.New(), nil)
	j.Feedback([]Observation{
		{Table: "car", ColGrp: name("car(make)"), StatList: names("car(make)"), EstSel: 0.2, ActualSel: 0.4, BaseCard: 1000},
		{Table: "car", StatList: nil, EstSel: 0.2, ActualSel: 0.4, BaseCard: 1000}, // skipped
	})
	if hist.Len() != 1 {
		t.Fatalf("history = %d entries", hist.Len())
	}
	entries := hist.For(name("car(make)"))
	if math.Abs(entries[0].ErrorFactor-0.5) > 1e-9 {
		t.Errorf("ef = %v, want 0.5", entries[0].ErrorFactor)
	}
}

func TestMigrateToCatalogViaCoordinator(t *testing.T) {
	db, _ := correlatedDB(t)
	cat := catalog.New()
	cfg := DefaultConfig()
	cfg.ForceCollect = true
	j := New(cfg, feedback.NewStore(), cat, nil)
	q := buildQuery(t, db, `SELECT id FROM car WHERE year > 2000`)
	var m costmodel.Meter
	if _, _, err := j.PrepareBudgeted(context.Background(), q, db, 1, &m, costmodel.DefaultWeights(), nil); err != nil {
		t.Fatal(err)
	}
	n := j.MigrateToCatalog(2)
	if n == 0 {
		t.Fatal("nothing migrated")
	}
	ts, ok := cat.TableStats("car")
	if !ok || ts.Columns["year"] == nil || ts.Columns["year"].Hist == nil {
		t.Error("catalog missing migrated year histogram")
	}
	if ts.Cardinality != 5000 {
		t.Errorf("cardinality = %d", ts.Cardinality)
	}
}

func TestSetSMax(t *testing.T) {
	j := New(DefaultConfig(), feedback.NewStore(), catalog.New(), nil)
	j.SetSMax(0.7)
	if j.cfg.SMax != 0.7 {
		t.Errorf("SMax = %v", j.cfg.SMax)
	}
}

func TestPrepareUnknownTable(t *testing.T) {
	db, _ := correlatedDB(t)
	j := New(DefaultConfig(), feedback.NewStore(), catalog.New(), nil)
	q := buildQuery(t, db, `SELECT id FROM car WHERE make = 'Toyota'`)
	// Prepare against a database without the rewritten query's table.
	var m costmodel.Meter
	if _, _, err := j.PrepareBudgeted(context.Background(), q, storage.NewDatabase(0), 1, &m, costmodel.DefaultWeights(), nil); err == nil {
		t.Error("prepare must fail for a missing table")
	}
}
