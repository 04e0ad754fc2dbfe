package core

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/feedback"
	"repro/internal/qgm"
	"repro/internal/storage"
	"repro/internal/value"
)

func newSensitivity(smax float64) *Sensitivity {
	return &Sensitivity{
		History: feedback.NewHistory(),
		Archive: NewArchive(0, 0),
		Cat:     catalog.New(),
		SMax:    smax,
	}
}

func TestShouldCollectColdTable(t *testing.T) {
	// No history, no stats: s1 = 1 → score ≥ 0.5 regardless of activity.
	s := newSensitivity(0.5)
	act := TableActivity{Table: "car", Cardinality: 1000, UDI: 0}
	groups := [][]qgm.Predicate{{gtPred("year", 2000)}}
	collect, scores := s.ShouldCollectStats(act, groups)
	if !collect {
		t.Errorf("cold table must be collected: %+v", scores)
	}
	if scores.S1 != 1 || scores.S2 != 0 {
		t.Errorf("scores = %+v", scores)
	}
}

func TestSMaxEndpoints(t *testing.T) {
	// Accurate history + no activity → near-zero score; s_max = 0 must
	// still collect and s_max = 1 must never collect even for cold tables.
	sZero := newSensitivity(0)
	sOne := newSensitivity(1)
	act := TableActivity{Table: "car", Cardinality: 1000, UDI: 1000}
	groups := [][]qgm.Predicate{{gtPred("year", 2000)}}
	if collect, _ := sZero.ShouldCollectStats(act, groups); !collect {
		t.Error("s_max = 0 must always collect")
	}
	if collect, _ := sOne.ShouldCollectStats(act, groups); collect {
		t.Error("s_max = 1 must never collect")
	}
}

func TestAccurateHistorySuppressesCollection(t *testing.T) {
	s := newSensitivity(0.5)
	g := []qgm.Predicate{gtPred("year", 2000)}
	colgrp := qgm.ColumnGroup("car", []string{"year"})
	// The archive holds an accurate histogram whose boundary matches the
	// group exactly, and history says estimates from it were perfect.
	domains := map[string]ColumnDomain{"year": intDomain(1990, 2010)}
	s.Archive.Materialize("car", g, 0.4, 1, domains)
	s.History.Record("car", colgrp, names("car(year)"), 1.0)

	act := TableActivity{Table: "car", Cardinality: 1000, UDI: 0}
	collect, scores := s.ShouldCollectStats(act, [][]qgm.Predicate{g})
	if collect {
		t.Errorf("accurate+fresh stats should not trigger collection: %+v", scores)
	}
	if scores.S1 > 0.05 {
		t.Errorf("s1 = %v, want ≈0", scores.S1)
	}
}

func TestBadErrorFactorTriggersCollection(t *testing.T) {
	// A 5x error alone gives s1 = 0.8 and (with no activity) a total of
	// 0.4: enough at a threshold of 0.4, reflecting that the aggregate is
	// the *average* of the two signals.
	s := newSensitivity(0.4)
	g := []qgm.Predicate{gtPred("year", 2000)}
	colgrp := qgm.ColumnGroup("car", []string{"year"})
	domains := map[string]ColumnDomain{"year": intDomain(1990, 2010)}
	s.Archive.Materialize("car", g, 0.4, 1, domains)
	// History: estimates from this stat were off by 5x.
	s.History.Record("car", colgrp, names("car(year)"), 5.0)
	act := TableActivity{Table: "car", Cardinality: 1000, UDI: 0}
	collect, scores := s.ShouldCollectStats(act, [][]qgm.Predicate{g})
	if !collect {
		t.Errorf("5x error should trigger collection: %+v", scores)
	}
}

func TestUDIActivityTriggersCollection(t *testing.T) {
	// 90% churn with perfect statistics accuracy averages to 0.45.
	s := newSensitivity(0.45)
	g := []qgm.Predicate{gtPred("year", 2000)}
	colgrp := qgm.ColumnGroup("car", []string{"year"})
	domains := map[string]ColumnDomain{"year": intDomain(1990, 2010)}
	s.Archive.Materialize("car", g, 0.4, 1, domains)
	s.History.Record("car", colgrp, names("car(year)"), 1.0)
	// Now 90% of the table churned.
	act := TableActivity{Table: "car", Cardinality: 1000, UDI: 900}
	collect, scores := s.ShouldCollectStats(act, [][]qgm.Predicate{g})
	if !collect {
		t.Errorf("high UDI should trigger collection: %+v", scores)
	}
	if scores.S2 != 0.9 {
		t.Errorf("s2 = %v", scores.S2)
	}
}

func TestS2EdgeCases(t *testing.T) {
	s := newSensitivity(0.99)
	g := [][]qgm.Predicate{{gtPred("x", 1)}}
	// UDI exceeding cardinality caps at 1.
	_, scores := s.ShouldCollectStats(TableActivity{Table: "t", Cardinality: 10, UDI: 50}, g)
	if scores.S2 != 1 {
		t.Errorf("s2 = %v, want 1", scores.S2)
	}
	// Empty table with churn (everything deleted): s2 = 1.
	_, scores = s.ShouldCollectStats(TableActivity{Table: "t", Cardinality: 0, UDI: 5}, g)
	if scores.S2 != 1 {
		t.Errorf("s2 = %v, want 1", scores.S2)
	}
	// Empty quiet table: s2 = 0.
	_, scores = s.ShouldCollectStats(TableActivity{Table: "t", Cardinality: 0, UDI: 0}, g)
	if scores.S2 != 0 {
		t.Errorf("s2 = %v, want 0", scores.S2)
	}
}

func TestStatAccuracyFromCatalogHistogram(t *testing.T) {
	s := newSensitivity(0.5)
	// Catalog distribution on car.year with a boundary at 2000.
	tbl := storage.NewTable("car", storage.MustSchema(storage.Column{Name: "year", Kind: value.KindInt}))
	for i := 0; i < 1000; i++ {
		if err := tbl.Insert([]value.Datum{value.NewInt(int64(1990 + i%20))}); err != nil {
			t.Fatal(err)
		}
	}
	var m costmodel.Meter
	st, err := catalog.Runstats(tbl, 1, &m, costmodel.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	s.Cat.SetTableStats(st)

	g := []qgm.Predicate{gtPred("year", 2000)}
	acc := s.statAccuracy(name("car(year)"), "car", g)
	if acc <= 0.5 {
		t.Errorf("catalog histogram accuracy = %v, want high (20 buckets over 20 values)", acc)
	}
	if got := s.statAccuracy(name("default(car.year)"), "car", g); got != defaultStatAccuracy {
		t.Errorf("default accuracy = %v", got)
	}
	if got := s.statAccuracy(name("ghost(col)"), "car", g); got != unknownStatAccuracy {
		t.Errorf("unknown accuracy = %v", got)
	}
}

func TestShouldMaterializeExistingHistogram(t *testing.T) {
	s := newSensitivity(0.5)
	g := []qgm.Predicate{gtPred("year", 2000)}
	domains := map[string]ColumnDomain{"year": intDomain(1990, 2010)}
	s.Archive.Materialize("car", g, 0.4, 1, domains)
	// Histogram exists on the column group → always refresh.
	if !s.ShouldMaterialize("car", []qgm.Predicate{gtPred("year", 1995)}) {
		t.Error("existing histogram must be refreshed")
	}
}

func TestShouldMaterializeFromUsefulness(t *testing.T) {
	s := newSensitivity(0.5)
	g := []qgm.Predicate{gtPred("year", 2000)}
	if s.ShouldMaterialize("car", g) {
		t.Error("empty history must not materialize")
	}
	// The statistic car(year) has been used for most estimates, accurately.
	statKey := "car(year)"
	for i := 0; i < 9; i++ {
		s.History.Record("car", name("car(make,year)"), names(statKey, "car(make)"), 1.0)
	}
	s.History.Record("car", name("car(id)"), names("car(id)"), 1.0)
	if !s.ShouldMaterialize("car", g) {
		t.Error("frequently-useful statistic must be materialized")
	}
	// An unrelated group with no usage history stays out.
	if s.ShouldMaterialize("car", []qgm.Predicate{gtPred("price", 100)}) {
		t.Error("unused statistic must not be materialized")
	}
}

func TestShouldMaterializeThresholdScaling(t *testing.T) {
	// The same history that passes s_max = 0.3 fails s_max = 0.9.
	histories := feedback.NewHistory()
	statKey := "car(year)"
	for i := 0; i < 5; i++ {
		histories.Record("car", name("car(make,year)"), names(statKey), 1.0)
	}
	for i := 0; i < 5; i++ {
		histories.Record("car", name("car(id)"), names("car(id)"), 1.0)
	}
	g := []qgm.Predicate{gtPred("year", 2000)}
	low := &Sensitivity{History: histories, Archive: NewArchive(0, 0), SMax: 0.3}
	high := &Sensitivity{History: histories, Archive: NewArchive(0, 0), SMax: 0.9}
	if !low.ShouldMaterialize("car", g) {
		t.Error("score 0.5 must pass s_max 0.3")
	}
	if high.ShouldMaterialize("car", g) {
		t.Error("score 0.5 must fail s_max 0.9")
	}
}
