package core

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/histogram"
	"repro/internal/qgm"
	"repro/internal/value"
)

func populatedArchive(t testing.TB) *Archive {
	t.Helper()
	a := NewArchive(1000, 100)
	domains := map[string]ColumnDomain{
		"year": intDomain(1990, 2010),
		"make": {Lo: value.StringCoord("Audi"), Hi: value.StringCoord("Toyota"), Unit: 1, Kind: value.KindString},
	}
	a.SetCardinality("car", 5000, 1)
	a.SetColumnNDV("car", "make", 10, 1)
	a.Materialize("car", []qgm.Predicate{gtPred("year", 2000)}, 0.4, 1, domains)
	a.Materialize("car", []qgm.Predicate{eqPred("make", "Toyota")}, 0.2, 2, domains)
	a.Materialize("car", []qgm.Predicate{
		{Column: "make", Op: qgm.OpIn, Values: []value.Datum{value.NewString("Kia")}},
	}, 0.05, 3, nil) // memo entry
	return a
}

func TestArchiveSaveLoadRoundTrip(t *testing.T) {
	a := populatedArchive(t)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := LoadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Histograms() != a.Histograms() || b.MemoEntries() != a.MemoEntries() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			b.Histograms(), b.MemoEntries(), a.Histograms(), a.MemoEntries())
	}
	if card, ok := b.Cardinality("car"); !ok || card != 5000 {
		t.Errorf("card = %v, %v", card, ok)
	}
	if ndv, ok := b.ColumnNDV("car", "make"); !ok || ndv != 10 {
		t.Errorf("ndv = %v, %v", ndv, ok)
	}
	// Identical estimates before and after.
	for _, preds := range [][]qgm.Predicate{
		{gtPred("year", 2000)},
		{gtPred("year", 2005)},
		{eqPred("make", "Toyota")},
		{{Column: "make", Op: qgm.OpIn, Values: []value.Datum{value.NewString("Kia")}}},
	} {
		sa, ka, oka := a.GroupSelectivity("car", preds, 9)
		sb, kb, okb := b.GroupSelectivity("car", preds, 9)
		if oka != okb || ka != kb || math.Abs(sa-sb) > 1e-12 {
			t.Errorf("preds %v: (%v,%q,%v) vs (%v,%q,%v)", preds, sa, ka, oka, sb, kb, okb)
		}
	}
}

func TestLoadedArchiveStillUpdates(t *testing.T) {
	a := populatedArchive(t)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := LoadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// New constraints must merge into the restored histograms (the
	// constraint list survived the round trip).
	domains := map[string]ColumnDomain{"year": intDomain(1990, 2010)}
	b.Materialize("car", []qgm.Predicate{gtPred("year", 2005)}, 0.1, 5, domains)
	sel, _, ok := b.GroupSelectivity("car", []qgm.Predicate{gtPred("year", 2005)}, 6)
	if !ok || math.Abs(sel-0.1) > 0.01 {
		t.Errorf("post-restore update sel = %v, %v", sel, ok)
	}
	// The older constraint is still honored.
	sel, _, ok = b.GroupSelectivity("car", []qgm.Predicate{gtPred("year", 2000)}, 7)
	if !ok || math.Abs(sel-0.4) > 0.02 {
		t.Errorf("older constraint sel = %v, %v", sel, ok)
	}
}

func TestLoadArchiveRejectsCorruption(t *testing.T) {
	cases := map[string]string{
		"garbage":       `{{{`,
		"wrong version": `{"version": 99}`,
		"bad histogram": `{"version":1,"grids":[{"key":"t(a)","cols":["a"],"units":{"a":1},"hist":{"cols":["a"],"cuts":[[0]],"mass":[1],"ts":[0]}}]}`,
		"bad mass":      `{"version":1,"grids":[{"key":"t(a)","cols":["a"],"units":{"a":1},"hist":{"cols":["a"],"cuts":[[0,1]],"mass":[5],"ts":[0]}}]}`,
		// A grid must agree with itself: lookups box predicates by position
		// in cols against the histogram's dimensions.
		"key names other columns":   gridJSON("owner(zip)", `["make","year"]`, `{}`),
		"cols wider than histogram": gridJSON("car(make,year)", `["make","year"]`, `{}`),
		"cols out of order":         gridJSON("t(a)", `["b","a"]`, `{}`),
		"unit outside cols":         gridJSON("t(a)", `["a"]`, `{"a":1,"b":1}`),
		"key is a predicate group":  gridJSON("t{a > 1}", `["a"]`, `{}`),
		"key has no table":          gridJSON("(a)", `["a"]`, `{}`),
		// Numbers the next fit or the optimizer would take as they are.
		"constraint fraction above 1": `{"version":1,"grids":[{"key":"t(a)","cols":["a"],"units":{"a":1},"hist":{"cols":["a"],"cuts":[[0,1]],"mass":[1],"ts":[0],` +
			`"constraints":[{"lo":[0],"hi":[0.5],"frac":1.5,"ts":1}]}}]}`,
		"memo selectivity above 1": `{"version":1,"memo":[{"key":"t{a > 1}","sel":1.5}]}`,
		"negative cardinality":     `{"version":1,"cards":[{"table":"t","card":-9}]}`,
		"negative NDV":             `{"version":1,"ndvs":[{"key":"t.a","ndv":-3}]}`,
	}
	for name, payload := range cases {
		if _, err := LoadArchive(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// The control: the same one-dimensional histogram under a consistent
	// envelope loads.
	a, err := LoadArchive(strings.NewReader(gridJSON("t(a)", `["a"]`, `{"a":1}`)))
	if err != nil || a.Histograms() != 1 {
		t.Fatalf("consistent grid rejected: %v", err)
	}
}

// gridJSON is a version-1 archive file holding one grid with the given
// envelope over a valid one-dimensional histogram.
func gridJSON(key, cols, units string) string {
	return `{"version":1,"grids":[{"key":"` + key + `","cols":` + cols + `,"units":` + units +
		`,"hist":{"cols":["a"],"cuts":[[0,1]],"mass":[1],"ts":[0]}}]}`
}

// FuzzLoadArchive: the archive file is the last decoder of bytes from outside
// the process. LoadArchive never panics, and an archive it accepts answers the
// optimizer's and the sensitivity analysis's questions about every grid it
// holds — through the same boxing code a query takes — without panicking,
// saves again, and takes one more observation into every grid with masses that
// stay finite, non-negative and sum to 1: what it loaded cannot poison a fit.
func FuzzLoadArchive(f *testing.F) {
	var saved bytes.Buffer
	if err := populatedArchive(f).Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes()) // a checksummed envelope; testdata/fuzz holds the version-1 seeds
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := LoadArchive(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, s := range a.Snapshot() {
			var group []qgm.Predicate
			for _, col := range s.Columns {
				for _, p := range []qgm.Predicate{gtPred(col, 0), eqPred(col, "Toyota"),
					{Column: col, Op: qgm.OpBetween, Lo: value.NewInt(-1), Hi: value.NewFloat(1e300)}} {
					a.GroupSelectivity(s.Table, []qgm.Predicate{p}, 1)
				}
				group = append(group, gtPred(col, 0))
			}
			a.GroupSelectivity(s.Table, group, 2)
			a.AccuracyFor(qgm.ColumnGroup(s.Table, s.Columns), group)
			a.HasStatistic(s.Table, s.Columns)
		}
		if err := a.Save(io.Discard); err != nil {
			t.Fatalf("a loaded archive does not save: %v", err)
		}
		for _, grids := range a.grids {
			for name, g := range grids {
				// The lower half of the domain (all of a dimension too narrow
				// to halve): no extension, never empty.
				box := histogram.FullBox(g.hist.Dims())
				for d := range box.Lo {
					lo, hi := g.hist.Domain(d)
					if mid := lo + (hi-lo)/2; lo < mid {
						hi = mid
					}
					box.Lo[d], box.Hi[d] = lo, hi
				}
				if err := g.hist.AddConstraint(box, 0.5, 3); err != nil {
					t.Fatalf("grid %s: AddConstraint: %v", name, err)
				}
				total := 0.0
				for i, m := range g.hist.Snapshot().Mass {
					if !(m >= 0) || math.IsInf(m, 0) {
						t.Fatalf("grid %s: cell %d has mass %g after a fit", name, i, m)
					}
					total += m
				}
				if math.Abs(total-1) > 1e-9 {
					t.Fatalf("grid %s: masses sum to %v after a fit", name, total)
				}
			}
		}
	})
}

func TestJITSRestoreArchive(t *testing.T) {
	j := New(DefaultConfig(), nil, nil, nil)
	a := populatedArchive(t)
	j.RestoreArchive(a)
	if j.Archive() != a {
		t.Error("RestoreArchive did not swap the archive")
	}
	var buf bytes.Buffer
	if err := j.SaveArchive(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("SaveArchive wrote nothing")
	}
}
