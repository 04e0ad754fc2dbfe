package index

import (
	"cmp"
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// benchKey spreads n ids over n/4 keys in no particular order, the shape of a
// foreign-key column: every key a few times, neighbours far apart.
func benchKey(kind value.Kind, id int64, n int) value.Datum {
	k := id * 2654435761 % int64(max(n/4, 1))
	if kind == value.KindString {
		return value.NewString(fmt.Sprintf("k%08d", k))
	}
	return value.NewInt(k)
}

func benchRows(kind value.Kind, from, count, n int) [][]value.Datum {
	rows := make([][]value.Datum, count)
	for i := range rows {
		id := int64(from + i)
		rows[i] = []value.Datum{value.NewInt(id), benchKey(kind, id, n), value.NewInt(0)}
	}
	return rows
}

func benchTable(b *testing.B, kind value.Kind, n int) *storage.Table {
	b.Helper()
	tbl := storage.NewTable("t", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "k", Kind: kind},
		storage.Column{Name: "other", Kind: value.KindInt},
	))
	if err := tbl.InsertBatch(benchRows(kind, 0, n, n)); err != nil {
		b.Fatal(err)
	}
	return tbl
}

// BenchmarkIndexAdvance prices one move of an index image to a newer
// snapshot, by what the DML in between did: 43k rows is the benchmark
// dataset's largest table, 430k ten times that. Each iteration starts from
// the same built image (restored off the clock into buffers a warm index
// would be reusing) and advances it to the same snapshot, so the DML runs
// once, in setup.
func BenchmarkIndexAdvance(b *testing.B) {
	for _, n := range []int{43_000, 430_000} {
		b.Run(fmt.Sprintf("rows=%d/key=int", n), func(b *testing.B) { benchAdvance[int64](b, value.KindInt, n) })
		b.Run(fmt.Sprintf("rows=%d/key=string", n), func(b *testing.B) { benchAdvance[string](b, value.KindString, n) })
	}
}

func benchAdvance[K cmp.Ordered](b *testing.B, kind value.Kind, n int) {
	update := func(tbl *storage.Table, pred func(id int64) bool, set func(row []value.Datum)) {
		if _, err := tbl.UpdateWhere(func(row []value.Datum) bool { return pred(row[0].Int()) }, set); err != nil {
			b.Fatal(err)
		}
	}
	scenarios := []struct {
		name     string
		wantFull bool
		dml      func(tbl *storage.Table) error
	}{
		{"insert-1-row", false, func(tbl *storage.Table) error { return tbl.Insert(benchRows(kind, n, 1, n)[0]) }},
		{"insert-4pct-batch", false, func(tbl *storage.Table) error { return tbl.InsertBatch(benchRows(kind, n, n/25, n)) }},
		{"update-other-column-10pct", false, func(tbl *storage.Table) error {
			update(tbl, func(id int64) bool { return id%10 == 0 }, func(row []value.Datum) { row[2] = value.NewInt(1) })
			return nil
		}},
		{"delete-2pct-with-swap", false, func(tbl *storage.Table) error {
			tbl.DeleteWhere(func(row []value.Datum) bool { return row[0].Int()%50 == 7 })
			return nil
		}},
		{"rewrite-30pct-fallback", true, func(tbl *storage.Table) error {
			update(tbl, func(id int64) bool { return id%10 < 3 }, func(row []value.Datum) { row[1] = benchKey(kind, row[0].Int()+1, n) })
			return nil
		}},
	}

	b.Run("first-build", func(b *testing.B) {
		snap := benchTable(b, kind, n).Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			newImage(kind, 1).advance(snap)
		}
	})
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			tbl := benchTable(b, kind, n)
			built := newImage(kind, 1).(*typed[K])
			built.build(tbl.Snapshot())
			if err := sc.dml(tbl); err != nil {
				b.Fatal(err)
			}
			after := tbl.Snapshot()
			im := newImage(kind, 1).(*typed[K])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				im.snap = built.snap
				im.nulls = append(im.nulls[:0], built.nulls...)
				im.ents = append(im.ents[:0], built.ents...)
				b.StartTimer()
				if _, full := im.advance(after); full != sc.wantFull {
					b.Fatalf("full sort = %v, want %v", full, sc.wantFull)
				}
			}
		})
	}
}

var lookupSink []int

// BenchmarkLookup10k prices a point probe of a built index: a bound of the
// column's own kind compares keys natively; a float bound on an int column
// takes the Datum.Compare fallback.
func BenchmarkLookup10k(b *testing.B) {
	intCell := func(i int) value.Datum { return value.NewInt(int64(i)) }
	strCell := func(i int) value.Datum { return value.NewString(fmt.Sprintf("k%08d", i)) }
	for _, c := range []struct {
		name        string
		kind        value.Kind
		cell, probe func(i int) value.Datum // the key stored for, and looked up as, i in [0, 500)
	}{
		{"int", value.KindInt, intCell, intCell},
		{"string", value.KindString, strCell, strCell},
		{"float-bound-on-int", value.KindInt, intCell, func(i int) value.Datum { return value.NewFloat(float64(i)) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			tbl := storage.NewTable("t", storage.MustSchema(storage.Column{Name: "k", Kind: c.kind}))
			probes := make([]value.Datum, 500)
			for i := range probes {
				probes[i] = c.probe(i)
			}
			for i := 0; i < 10000; i++ {
				if err := tbl.Insert([]value.Datum{c.cell(i % 500)}); err != nil {
					b.Fatal(err)
				}
			}
			ix, err := New("ix", tbl, "k")
			if err != nil {
				b.Fatal(err)
			}
			if got := ix.Lookup(probes[0]); len(got) != 20 { // build
				b.Fatalf("Lookup = %d rows, want 20", len(got))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lookupSink = ix.Lookup(probes[i%500])
			}
		})
	}
}
