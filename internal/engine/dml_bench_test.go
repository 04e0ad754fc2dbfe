package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

var dmlSnapshotSink *storage.Snapshot

// BenchmarkDML prices the writes of the paper's update stream on its largest
// table (accidents, 43k rows of seven columns at scale 0.01), each statement
// through Engine.Exec and each after a snapshot of the table — a reader is
// always about — so every chunk it writes is copied on write: an UPDATE of
// one column of a sixth of the rows (one vector a touched chunk, whatever the
// column count), a DELETE of 5 % (one row copy per hole, the rows put back off
// the clock), and the INSERT of those rows as one multi-row statement (lexed
// and parsed without copying the text). Bytes per statement are what
// column-granular copy-on-write is held to.
func BenchmarkDML(b *testing.B) {
	load := func(b *testing.B) (*engine.Engine, *storage.Table, int) {
		e := engine.New(engine.Config{})
		if _, err := workload.Load(e, workload.Spec{Scale: 0.01, Seed: 42}); err != nil {
			b.Fatal(err)
		}
		tbl, _ := e.DB().Table("accidents")
		return e, tbl, tbl.RowCount()
	}
	exec := func(b *testing.B, e *engine.Engine, sql string, want int) {
		res, err := e.Exec(sql)
		if err != nil {
			b.Fatal(err)
		}
		if res.RowsAffected != want {
			b.Fatalf("%.60s… affected %d rows, want %d", sql, res.RowsAffected, want)
		}
	}
	b.Run("update-one-column-of-a-sixth", func(b *testing.B) {
		e, tbl, n := load(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dmlSnapshotSink = tbl.Snapshot()
			lo := i * 997 % (n - n/6)
			exec(b, e, fmt.Sprintf(`UPDATE accidents SET damage = %d WHERE id BETWEEN %d AND %d`, 100+i, lo, lo+n/6-1), n/6)
		}
	})
	// slice is 5 % of the table by id; insertSQL spells its rows as the
	// accident wave does.
	slice := func(i, n int) (lo, hi int) { lo = i * 991 % (n - n/20); return lo, lo + n/20 - 1 }
	insertSQL := func(tbl *storage.Table, lo, hi int) string {
		var sb strings.Builder
		sb.WriteString(`INSERT INTO accidents VALUES `)
		tbl.Snapshot().Scan(func(_ int, row []value.Datum) bool {
			if id := row[0].Int(); id >= int64(lo) && id <= int64(hi) {
				if sb.Len() > 40 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, %d, %s, %v, %d, %d, %s)", id, row[1].Int(), row[2], row[3].Float(), row[4].Int(), row[5].Int(), row[6])
			}
			return true
		})
		return sb.String()
	}
	b.Run("delete-5pct", func(b *testing.B) {
		e, tbl, n := load(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			lo, hi := slice(i, n)
			back := insertSQL(tbl, lo, hi)
			dmlSnapshotSink = tbl.Snapshot()
			b.StartTimer()
			exec(b, e, fmt.Sprintf(`DELETE FROM accidents WHERE id BETWEEN %d AND %d`, lo, hi), n/20)
			b.StopTimer()
			exec(b, e, back, n/20)
			b.StartTimer()
		}
	})
	b.Run("insert-5pct", func(b *testing.B) {
		e, tbl, n := load(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			lo, hi := slice(i, n)
			back := insertSQL(tbl, lo, hi)
			exec(b, e, fmt.Sprintf(`DELETE FROM accidents WHERE id BETWEEN %d AND %d`, lo, hi), n/20)
			dmlSnapshotSink = tbl.Snapshot()
			b.StartTimer()
			exec(b, e, back, n/20)
		}
	})
}
