package storage

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/value"
)

// TestTruncateThenAppendKeepsNullBitmap: truncate(n) must leave rows below n
// as they were — NULL or not — and no NULL bit at or above n, so rows
// appended afterwards read back exactly as appended. The cuts sit on, next
// to, and far from word boundaries of the bitmap.
func TestTruncateThenAppendKeepsNullBitmap(t *testing.T) {
	const capacity = DefaultChunkSize
	datum := map[value.Kind]func(i int) value.Datum{
		value.KindInt:    func(i int) value.Datum { return value.NewInt(int64(i) + 1) },
		value.KindFloat:  func(i int) value.Datum { return value.NewFloat(float64(i) + 0.5) },
		value.KindString: func(i int) value.Datum { return value.NewString(fmt.Sprint("s", i)) },
	}
	for kind, mk := range datum {
		for _, n := range []int{0, 1, 63, 64, 65, 4095} {
			// NULLs on both sides of the cut and right at it, plus a regular
			// sprinkling so whole words above the cut are dirty.
			isNull := func(i int) bool { return i%7 == 3 || i == n-1 || i == n || i == n+1 || i == capacity-1 }
			v := newColumnVec(kind, capacity)
			for i := 0; i < capacity; i++ {
				if isNull(i) {
					v.append(value.Null)
				} else {
					v.append(mk(i))
				}
			}
			v.truncate(n)
			if v.Len() != n {
				t.Fatalf("%v truncate(%d): Len = %d", kind, n, v.Len())
			}
			for i := 0; i < n; i++ {
				want := mk(i)
				if isNull(i) {
					want = value.Null
				}
				if got := v.Datum(i); got != want {
					t.Fatalf("%v truncate(%d): row %d = %v, want %v (a live NULL bit or value was lost)", kind, n, i, got, want)
				}
			}
			// Refill with the opposite NULL pattern: every stale bit shows.
			for i := n; i < capacity; i++ {
				if isNull(i) {
					v.append(mk(i))
				} else {
					v.append(value.Null)
				}
			}
			for i := n; i < capacity; i++ {
				want := value.Null
				if isNull(i) {
					want = mk(i)
				}
				if got := v.Datum(i); got != want {
					t.Fatalf("%v truncate(%d) then append: row %d = %v, want %v (a stale NULL bit survived)", kind, n, i, got, want)
				}
			}
		}
	}
}

// chunkImage is what a snapshot promises never changes: every chunk's
// pointer, and a deep copy of its contents taken when the snapshot was.
type chunkImage struct {
	snap   *Snapshot
	copies []*Chunk
}

func captureImage(tbl *Table) chunkImage {
	snap := tbl.Snapshot()
	img := chunkImage{snap: snap}
	for _, c := range snap.chunks {
		img.copies = append(img.copies, c.clone())
	}
	return img
}

func (img chunkImage) verify(t *testing.T, when string) {
	t.Helper()
	for i, c := range img.snap.chunks {
		want := img.copies[i]
		if c.n != want.n || !reflect.DeepEqual(c.cols, want.cols) {
			t.Fatalf("%s: chunk %d of snapshot v%d was written after the snapshot captured it", when, i, img.snap.version)
		}
	}
}

// TestSnapshotChunksNeverWritten pins the rule secondary indexes catch up
// by: a chunk reachable from a Snapshot is never written, so a chunk DML did
// not touch keeps its pointer in the next snapshot, a touched one gets a new
// pointer, and pointer equality across snapshots implies content equality.
func TestSnapshotChunksNeverWritten(t *testing.T) {
	byID := func(ids ...int64) func(row []value.Datum) bool {
		return func(row []value.Datum) bool {
			for _, id := range ids {
				if row[0].Int() == id {
					return true
				}
			}
			return false
		}
	}
	setName := func(row []value.Datum) { row[1] = value.NewString("changed") }
	// Ten rows in chunks of four: chunks hold rows 0-3, 4-7 and 8-9.
	cases := []struct {
		name string
		dml  func(t *testing.T, tbl *Table)
		// kept lists the chunk indexes whose pointer must survive into the
		// next snapshot; every other chunk of that snapshot must be new.
		kept       []int
		wantChunks int
	}{
		{"Insert into the tail chunk", func(t *testing.T, tbl *Table) {
			if err := tbl.Insert(mkRow(10)); err != nil {
				t.Fatal(err)
			}
			// A second insert writes the unshared clone in place.
			if err := tbl.Insert(mkRow(11)); err != nil {
				t.Fatal(err)
			}
		}, []int{0, 1}, 3},
		{"InsertBatch across a chunk boundary", func(t *testing.T, tbl *Table) {
			if err := tbl.InsertBatch([][]value.Datum{mkRow(10), mkRow(11), mkRow(12), mkRow(13)}); err != nil {
				t.Fatal(err)
			}
		}, []int{0, 1}, 4},
		{"UpdateWhere in the middle chunk", func(t *testing.T, tbl *Table) {
			if n, err := tbl.UpdateWhere(byID(5), setName); n != 1 || err != nil {
				t.Fatalf("updated %d rows, %v", n, err)
			}
		}, []int{0, 2}, 3},
		{"UpdateWhere matching nothing", func(t *testing.T, tbl *Table) {
			if n, err := tbl.UpdateWhere(byID(99), setName); n != 0 || err != nil {
				t.Fatalf("updated %d rows, %v", n, err)
			}
		}, []int{0, 1, 2}, 3},
		{"UpdateWhere rejected by the schema", func(t *testing.T, tbl *Table) {
			if _, err := tbl.UpdateWhere(byID(5), func(row []value.Datum) { row[1] = value.NewInt(1) }); err == nil {
				t.Fatal("a string column took an int")
			}
		}, []int{0, 1, 2}, 3},
		{"DeleteWhere with the last row swapped in", func(t *testing.T, tbl *Table) {
			if n := tbl.DeleteWhere(byID(1)); n != 1 {
				t.Fatalf("deleted %d rows", n)
			}
		}, []int{1}, 3},
		{"DeleteWhere popping the last chunk empty", func(t *testing.T, tbl *Table) {
			if n := tbl.DeleteWhere(byID(8, 9)); n != 2 {
				t.Fatalf("deleted %d rows", n)
			}
		}, []int{0, 1}, 2},
		{"DeleteWhere of everything", func(t *testing.T, tbl *Table) {
			if n := tbl.DeleteWhere(func([]value.Datum) bool { return true }); n != 10 {
				t.Fatalf("deleted %d rows", n)
			}
		}, nil, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tbl := NewTableWithChunkSize("t", testSchema(t), 4)
			fillTable(t, tbl, 10)
			before := captureImage(tbl)
			c.dml(t, tbl)
			before.verify(t, "after the DML")
			after := tbl.Snapshot()
			if after.NumChunks() != c.wantChunks {
				t.Fatalf("%d chunks after the DML, want %d", after.NumChunks(), c.wantChunks)
			}
			kept := make(map[int]bool)
			for _, i := range c.kept {
				kept[i] = true
			}
			for i, ch := range after.chunks {
				same := i < len(before.snap.chunks) && before.snap.chunks[i] == ch
				if same != kept[i] {
					t.Errorf("chunk %d: same pointer as before = %v, want %v", i, same, kept[i])
				}
			}
		})
	}

	// All of it in sequence on one table, holding every snapshot to the end.
	tbl := NewTableWithChunkSize("t", testSchema(t), 4)
	fillTable(t, tbl, 10)
	held := []chunkImage{captureImage(tbl)}
	steps := []func() error{
		func() error { return tbl.Insert(mkRow(10)) },
		func() error {
			return tbl.InsertBatch([][]value.Datum{mkRow(11), mkRow(12), mkRow(13), mkRow(14), mkRow(15)})
		},
		func() error { _, err := tbl.UpdateWhere(byID(2, 6, 14), setName); return err },
		func() error { tbl.DeleteWhere(byID(0, 7, 15)); return nil },
		func() error { tbl.DeleteWhere(func([]value.Datum) bool { return true }); return nil },
		func() error {
			return tbl.InsertBatch([][]value.Datum{mkRow(20), mkRow(21), mkRow(22), mkRow(23), mkRow(24)})
		},
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		for _, img := range held {
			img.verify(t, fmt.Sprintf("after step %d", i))
		}
		held = append(held, captureImage(tbl))
	}
}
