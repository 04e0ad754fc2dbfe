package engine

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestStatisticsSurviveRestart(t *testing.T) {
	// Session 1: JITS collects and materializes statistics.
	cfg := Config{JITS: core.DefaultConfig()}
	cfg.JITS.ForceCollect = true
	e1 := seedEngine(t, cfg)
	mustExec(t, e1, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	if e1.JITS().Archive().Histograms() == 0 {
		t.Fatal("nothing materialized")
	}
	var buf bytes.Buffer
	if err := e1.SaveStatistics(&buf); err != nil {
		t.Fatal(err)
	}

	// Session 2: a fresh engine (JITS collection disabled so only the
	// restored archive can inform the plan) restores the statistics.
	cfg2 := Config{JITS: core.DefaultConfig()}
	cfg2.JITS.SMax = 1 // never collect: estimates must come from the archive
	e2 := seedEngine(t, cfg2)
	if err := e2.LoadStatistics(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e2, `EXPLAIN SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	if !strings.Contains(res.Plan, "rows=400") {
		t.Errorf("restored archive should inform the estimate (rows=400):\n%s", res.Plan)
	}
}

func TestLoadStatisticsRejectsGarbage(t *testing.T) {
	e := New(Config{})
	if err := e.LoadStatistics(strings.NewReader("not json")); err == nil {
		t.Error("garbage must be rejected")
	}
}

// TestOneArchiveForEveryReader: the engine keeps one statistics archive. The
// workload-statistics baseline fills the archive SHOW STATS lists and
// SaveStatistics writes, and an engine with JITS collection off plans from
// an archive it loaded.
func TestOneArchiveForEveryReader(t *testing.T) {
	const q = `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`
	t.Run("workload stats are listed and saved", func(t *testing.T) {
		e := seedEngine(t, Config{})
		if err := e.CollectWorkloadStats([]string{q}); err != nil {
			t.Fatal(err)
		}
		show := mustExec(t, e, `SHOW STATS`)
		listed := false
		for _, row := range show.Rows {
			listed = listed || (row[1].Str() == "car" && row[2].Str() == "make,model")
		}
		if !listed {
			t.Fatalf("SHOW STATS lists %d grids, none of them car(make,model)", show.Len())
		}
		var buf bytes.Buffer
		if err := e.SaveStatistics(&buf); err != nil {
			t.Fatal(err)
		}
		a, err := core.LoadArchive(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if a.Histograms() != show.Len() {
			t.Errorf("SaveStatistics wrote %d grids, SHOW STATS lists %d", a.Histograms(), show.Len())
		}
	})
	t.Run("a loaded archive informs a JITS-off plan", func(t *testing.T) {
		cfg := Config{JITS: core.DefaultConfig()}
		cfg.JITS.ForceCollect = true
		collector := seedEngine(t, cfg)
		mustExec(t, collector, q)
		var buf bytes.Buffer
		if err := collector.SaveStatistics(&buf); err != nil {
			t.Fatal(err)
		}

		e := seedEngine(t, Config{})
		if err := e.RunstatsAll(); err != nil {
			t.Fatal(err)
		}
		// General statistics under independence: 0.6 × 0.4 × 1000 = 240.
		if res := mustExec(t, e, "EXPLAIN "+q); !strings.Contains(res.Plan, "rows=240") {
			t.Fatalf("before the load, want the independence estimate rows=240:\n%s", res.Plan)
		}
		if err := e.LoadStatistics(&buf); err != nil {
			t.Fatal(err)
		}
		if res := mustExec(t, e, "EXPLAIN "+q); !strings.Contains(res.Plan, "rows=400") {
			t.Errorf("after the load, want the archived estimate rows=400:\n%s", res.Plan)
		}
	})
}
