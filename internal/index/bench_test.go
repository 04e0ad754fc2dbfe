package index

import (
	"fmt"
	"math"
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
// dataset's largest table, 430k ten times that, 10k its owner table. Each
// iteration starts from the same built image (restored off the clock into
// buffers a warm index would be reusing) and advances it to the same
// snapshot, so the DML runs once, in setup.
//
// The delta-* scenarios are the measurement behind rebuildLimit: in-place
// rewrites of ⅙, ¼, ⅜ and ½ of the keys — deltas (removed plus added entries)
// of ⅓, ½, ¾ and 1 of the rows — each priced both ways, merged into the old
// image and sorted from scratch.
func BenchmarkIndexAdvance(b *testing.B) {
	for _, n := range []int{10_000, 43_000, 430_000} {
		b.Run(fmt.Sprintf("rows=%d/key=int", n), func(b *testing.B) { benchAdvance[int64](b, value.KindInt, n) })
		b.Run(fmt.Sprintf("rows=%d/key=string", n), func(b *testing.B) { benchAdvance[string](b, value.KindString, n) })
	}
}

func benchAdvance[K value.Ordered](b *testing.B, kind value.Kind, n int) {
	byID := func(pred func(id int64) bool) storage.Matcher {
		return func(dst []int32, ch *storage.Chunk) []int32 {
			for i, id := range ch.Col(0).Ints() {
				if pred(id) {
					dst = append(dst, int32(i))
				}
			}
			return dst
		}
	}
	update := func(tbl *storage.Table, pred func(id int64) bool, ordinal int, v value.Datum) {
		if _, err := tbl.UpdateWhere(byID(pred), []storage.Assignment{{Ordinal: ordinal, Value: v}}); err != nil {
			b.Fatal(err)
		}
	}
	// rewrite gives the rows with id%den < num new keys scattered over the key
	// space, 512 statements of one key each (an UPDATE assigns a constant).
	rewrite := func(tbl *storage.Table, num, den int64) {
		for j := int64(0); j < 512; j++ {
			update(tbl, func(id int64) bool { return id%den < num && id/den%512 == j }, 1, benchKey(kind, j*977+1, n))
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
			update(tbl, func(id int64) bool { return id%10 == 0 }, 2, value.NewInt(1))
			return nil
		}},
		{"delete-2pct-with-swap", false, func(tbl *storage.Table) error {
			tbl.DeleteWhere(byID(func(id int64) bool { return id%50 == 7 }))
			return nil
		}},
		{"rewrite-40pct-fallback", true, func(tbl *storage.Table) error { rewrite(tbl, 2, 5); return nil }},
	}

	b.Run("first-build", func(b *testing.B) {
		snap := benchTable(b, kind, n).Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			newImage(kind, 1).advance(snap)
		}
	})
	// run times move(im, after) from the image built before dml ran; move
	// reports whether it changed the entries, so that only then the image is
	// restored (off the clock) for the next iteration.
	run := func(b *testing.B, dml func(tbl *storage.Table) error, move func(im *typed[K], after *storage.Snapshot) bool) {
		tbl := benchTable(b, kind, n)
		built := newImage(kind, 1).(*typed[K])
		built.build(tbl.Snapshot())
		if err := dml(tbl); err != nil {
			b.Fatal(err)
		}
		after := tbl.Snapshot()
		im := newImage(kind, 1).(*typed[K])
		b.ReportAllocs()
		b.ResetTimer()
		for i, changed := 0, true; i < b.N; i++ {
			if changed {
				b.StopTimer()
				im.nulls = append(im.nulls[:0], built.nulls...)
				im.ents = append(im.ents[:0], built.ents...)
				b.StartTimer()
			}
			im.snap = built.snap
			changed = move(im, after)
		}
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			run(b, sc.dml, func(im *typed[K], after *storage.Snapshot) bool {
				moved, _, full := im.advance(after)
				if full != sc.wantFull {
					b.Fatalf("full sort = %v, want %v", full, sc.wantFull)
				}
				return full || moved > 0
			})
		})
	}
	if n > 43_000 {
		return
	}
	for _, d := range []struct {
		name     string
		num, den int64
	}{{"delta-1of3", 1, 6}, {"delta-1of2", 1, 4}, {"delta-3of4", 3, 8}, {"delta-1of1", 1, 2}} {
		dml := func(tbl *storage.Table) error { rewrite(tbl, d.num, d.den); return nil }
		b.Run(d.name+"/merge", func(b *testing.B) {
			run(b, dml, func(im *typed[K], after *storage.Snapshot) bool {
				im.diff(after, math.MaxInt)
				return im.merge(after) > 0
			})
		})
		b.Run(d.name+"/sort", func(b *testing.B) {
			run(b, dml, func(im *typed[K], after *storage.Snapshot) bool { im.build(after); return true })
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
