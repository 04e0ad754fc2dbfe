package core_test

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qgm"
	"repro/internal/workload"
)

// TestArchiveReadersJoinTheFits: a histogram merge leaves its fit running
// beside the statement, so an s_max 0 paper stream (every statement samples
// and materializes, updates on) keeps fits in flight while three goroutines
// read the archive: GroupSelectivity and AccuracyFor over the stream's
// predicate groups, SHOW STATS, and Save. Under -race this proves every
// reader synchronizes with the fits it reads. Each must also see fitted
// masses: every saved archive loads back, which holds each grid's masses to
// a sum of 1 that a fit in mid-round does not have. After Close the
// histogram_ipf_* totals equal those of a twin engine that waits for its
// archive after every statement.
func TestArchiveReadersJoinTheFits(t *testing.T) {
	stream, e := besideEngine(t)
	_, twin := besideEngine(t)

	type group struct {
		table string
		preds []qgm.Predicate
	}
	var groups []group
	for _, st := range stream {
		if !st.IsQuery {
			continue
		}
		for _, blk := range buildQuery(t, e, st.SQL).Blocks {
			for slot, ti := range blk.Tables {
				if preds := blk.LocalPreds[slot]; len(preds) > 0 {
					groups = append(groups, group{ti.Table, preds})
				}
			}
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var reads [3]atomic.Int64
	fail := make(chan string, 3)
	read := func(r int, once func() string) {
		defer wg.Done()
		for !stop.Load() {
			if msg := once(); msg != "" {
				fail <- msg
				return
			}
			reads[r].Add(1)
		}
	}
	wg.Add(3)
	go read(0, func() string {
		a := e.JITS().Archive()
		for _, g := range groups {
			if sel, _, ok := a.GroupSelectivity(g.table, g.preds, 0); ok && !(sel >= 0 && sel <= 1) {
				return "GroupSelectivity out of [0,1]"
			}
			name := qgm.ColumnGroup(g.table, qgm.GroupColumns(g.preds))
			if acc, ok := a.AccuracyFor(name, g.preds); ok && !(acc >= 0 && acc <= 1) {
				return "AccuracyFor out of [0,1]"
			}
		}
		return ""
	})
	go read(1, func() string {
		if _, err := e.Exec(`SHOW STATS`); err != nil {
			return "SHOW STATS: " + err.Error()
		}
		return ""
	})
	go read(2, func() string {
		var buf bytes.Buffer
		if err := e.JITS().Archive().Save(&buf); err != nil {
			return "Save: " + err.Error()
		}
		if _, err := core.LoadArchive(&buf); err != nil {
			return "a saved archive does not load: " + err.Error()
		}
		return ""
	})

	for _, st := range stream {
		if _, err := e.Exec(st.SQL); err != nil {
			t.Fatalf("%s: %v", st.SQL, err)
		}
		if _, err := twin.Exec(st.SQL); err != nil {
			t.Fatalf("twin %s: %v", st.SQL, err)
		}
		twin.JITS().Archive().Wait()
	}
	stop.Store(true)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	t.Logf("reads beside the stream: %d group passes, %d SHOW STATS, %d saves", reads[0].Load(), reads[1].Load(), reads[2].Load())

	for _, x := range []*engine.Engine{e, twin} {
		if err := x.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, want := fitTotals(e), fitTotals(twin)
	if got["histogram_ipf_fits_total"] == 0 {
		t.Fatal("the stream ran no fit")
	}
	for name, w := range want {
		if got[name] != w && name != "histogram_ipf_seconds_total" {
			t.Errorf("%s = %v beside the statements, %v waited for each", name, got[name], w)
		}
	}
	if got["histogram_ipf_seconds_total"] <= 0 {
		t.Errorf("histogram_ipf_seconds_total = %v, want the fits' wall time", got["histogram_ipf_seconds_total"])
	}
}

// besideEngine is a collect_all engine at scale 0.002 and the paper stream
// it runs, updates on.
func besideEngine(t *testing.T) ([]workload.Statement, *engine.Engine) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.SMax = 0
	cfg.SampleSize = 300
	e := engine.New(engine.Config{JITS: cfg, Parallelism: 1})
	d, err := workload.Load(e, workload.Spec{Scale: 0.002, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return d.Workload(60, 3, true), e
}

// fitTotals reads the histogram_ipf_* series of e's scrape.
func fitTotals(e *engine.Engine) map[string]float64 {
	out := map[string]float64{}
	for _, s := range e.Scrape().Samples() {
		if strings.HasPrefix(s.Name, "histogram_ipf_") {
			out[s.Name] = s.Value
		}
	}
	return out
}
