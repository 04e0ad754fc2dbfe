package core

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/feedback"
	"repro/internal/index"
	"repro/internal/qgm"
	"repro/internal/storage"
)

func cnJITS(t *testing.T, db *storage.Database, cfg Config) *JITS {
	t.Helper()
	cfg.Strategy = StrategyCN
	ixs := index.NewSet()
	if car, ok := db.Table("car"); ok {
		if _, err := ixs.Create(car, "make"); err != nil {
			t.Fatal(err)
		}
	}
	return New(cfg, feedback.NewHistory(), catalog.New(), ixs, nil)
}

func TestCNCollectsWhenPlansDiverge(t *testing.T) {
	db, _ := correlatedDB(t)
	cfg := DefaultConfig()
	j := cnJITS(t, db, cfg)
	// Cold engine, selective-looking predicates: pinning unknowns to ε vs
	// 1−ε flips the access path (index vs full scan), so the plan costs
	// diverge and CN demands collection.
	q := buildQuery(t, db, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	var m costmodel.Meter
	_, rep, err := j.PrepareBudgeted(context.Background(), q, db, 1, &m, costmodel.DefaultWeights(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CollectedTables() != 1 {
		t.Fatalf("CN should collect on a cold table: %+v", rep)
	}
}

func TestCNSkipsWhenStatisticsSufficient(t *testing.T) {
	db, car := correlatedDB(t)
	cfg := DefaultConfig()
	j := cnJITS(t, db, cfg)
	// Give the catalog full statistics: no unknown selectivities remain,
	// the ε / 1−ε probes agree, and CN collects nothing.
	var m costmodel.Meter
	st, err := catalog.Runstats(car, 1, &m, costmodel.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	j.cat.SetTableStats(st)
	q := buildQuery(t, db, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	_, rep, err := j.PrepareBudgeted(context.Background(), q, db, 2, &m, costmodel.DefaultWeights(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CollectedTables() != 0 {
		t.Fatalf("CN should skip with full statistics: %+v", rep)
	}
}

func TestCNChargesOptimizerProbes(t *testing.T) {
	db, _ := correlatedDB(t)
	w := costmodel.DefaultWeights()
	q := buildQuery(t, db, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)

	// Lightweight strategy compile charge for the same decision.
	jLight := New(DefaultConfig(), feedback.NewHistory(), catalog.New(), nil, nil)
	var mLight costmodel.Meter
	if _, _, err := jLight.PrepareBudgeted(context.Background(), q, db, 1, &mLight, w, nil); err != nil {
		t.Fatal(err)
	}

	db2, _ := correlatedDB(t)
	jCN := cnJITS(t, db2, DefaultConfig())
	var mCN costmodel.Meter
	q2 := buildQuery(t, db2, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	if _, _, err := jCN.PrepareBudgeted(context.Background(), q2, db2, 1, &mCN, w, nil); err != nil {
		t.Fatal(err)
	}
	// Both collect (sampling dominates), but CN additionally pays the plan
	// probes: strictly more compile units for the same outcome.
	if !(mCN.Units() > mLight.Units()) {
		t.Errorf("CN compile units %v should exceed lightweight %v", mCN.Units(), mLight.Units())
	}
}

func TestCNPinnedSourceBehaviour(t *testing.T) {
	// Behind the pins sits the real source — here one that knows nothing.
	src := &cnPinnedSource{
		StatsSource: ArchiveStats(NewArchive(0, 0), 1),
		unknown:     map[string]bool{"car": true},
		pin:         0.01,
	}
	p := gtPred("year", 2000)
	if sel, key, ok := src.GroupSelectivity("car", []qgm.Predicate{p}); !ok || sel != 0.01 || !key.IsZero() {
		t.Errorf("pinned = %v %q %v", sel, key, ok)
	}
	if _, _, ok := src.GroupSelectivity("owner", []qgm.Predicate{p}); ok {
		t.Error("a known table is answered by the real source, which here must miss")
	}
	if _, ok := src.Cardinality("car"); ok {
		t.Error("cardinalities come from the real source, which has none")
	}
	if _, ok := src.ColumnNDV("car", "year"); ok {
		t.Error("NDVs come from the real source, which has none")
	}
}

func TestAnyDefault(t *testing.T) {
	if anyDefault(names("car(make)", "car(year)")) {
		t.Error("no defaults present")
	}
	if !anyDefault(names("car(make)", "default(car.year)")) {
		t.Error("default not detected")
	}
	if anyDefault(nil) {
		t.Error("empty statlist has no defaults")
	}
}
