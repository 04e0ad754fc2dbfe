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
// pointer and every column vector's, and a deep copy of each vector's
// contents taken when the snapshot was.
type chunkImage struct {
	snap   *Snapshot
	vecs   [][]*ColumnVec // vecs[chunk][column], as captured
	copies [][]*ColumnVec
}

func captureImage(tbl *Table) chunkImage {
	snap := tbl.Snapshot()
	img := chunkImage{snap: snap}
	for _, c := range snap.chunks {
		vecs := append([]*ColumnVec(nil), c.cols...)
		copies := make([]*ColumnVec, len(vecs))
		for i, v := range vecs {
			copies[i] = v.clone()
		}
		img.vecs, img.copies = append(img.vecs, vecs), append(img.copies, copies)
	}
	return img
}

func (img chunkImage) verify(t *testing.T, when string) {
	t.Helper()
	for ci, c := range img.snap.chunks {
		for ord, v := range c.cols {
			if v != img.vecs[ci][ord] {
				t.Fatalf("%s: chunk %d of snapshot v%d had column %d repointed after the snapshot captured it", when, ci, img.snap.version, ord)
			}
			// A clone keeps kind, values, bitmap and length (capacity aside):
			// any write to the captured vector shows.
			if want := img.copies[ci][ord]; v.Len() != want.Len() || !reflect.DeepEqual(v, want) {
				t.Fatalf("%s: chunk %d column %d of snapshot v%d was written after the snapshot captured it", when, ci, ord, img.snap.version)
			}
		}
	}
}

// TestSnapshotChunksNeverWritten pins the rule secondary indexes catch up
// by, per column vector: a vector reachable from a Snapshot is never written.
// So a chunk DML did not touch keeps its pointer in the next snapshot; a
// touched one gets a new pointer but keeps the vectors of the columns the
// DML did not write; and pointer equality of two vectors across snapshots
// implies content equality — every held image is checked against the copy
// taken with it, so a vector two images share has equalled both copies.
func TestSnapshotChunksNeverWritten(t *testing.T) {
	byID := func(ids ...int64) Matcher {
		return MatchRows(func(row []value.Datum) bool {
			for _, id := range ids {
				if row[0].Int() == id {
					return true
				}
			}
			return false
		})
	}
	everyRow := MatchRows(func([]value.Datum) bool { return true })
	setName := []Assignment{{Ordinal: 1, Value: value.NewString("changed")}}
	// Ten rows in chunks of four: chunks hold rows 0-3, 4-7 and 8-9.
	cases := []struct {
		name string
		dml  func(t *testing.T, tbl *Table)
		// kept lists the chunk indexes whose pointer must survive into the
		// next snapshot; every other chunk of that snapshot must be new, and
		// so must its vectors, except the columns keptCols lists for it.
		kept       []int
		keptCols   map[int][]int
		wantChunks int
	}{
		{"Insert into the tail chunk", func(t *testing.T, tbl *Table) {
			if err := tbl.Insert(mkRow(10)); err != nil {
				t.Fatal(err)
			}
			// A second insert writes the unshared copy in place.
			if err := tbl.Insert(mkRow(11)); err != nil {
				t.Fatal(err)
			}
		}, []int{0, 1}, nil, 3},
		{"InsertBatch across a chunk boundary", func(t *testing.T, tbl *Table) {
			if err := tbl.InsertBatch([][]value.Datum{mkRow(10), mkRow(11), mkRow(12), mkRow(13)}); err != nil {
				t.Fatal(err)
			}
		}, []int{0, 1}, nil, 4},
		{"UpdateWhere in the middle chunk", func(t *testing.T, tbl *Table) {
			if n, err := tbl.UpdateWhere(byID(5), setName); n != 1 || err != nil {
				t.Fatalf("updated %d rows, %v", n, err)
			}
			// A second update writes the owned vector in place.
			if n, err := tbl.UpdateWhere(byID(6), setName); n != 1 || err != nil {
				t.Fatalf("updated %d rows, %v", n, err)
			}
		}, []int{0, 2}, map[int][]int{1: {0, 2}}, 3},
		{"UpdateWhere of two columns, then a third, across chunks", func(t *testing.T, tbl *Table) {
			sets := []Assignment{{Ordinal: 2, Value: value.Null}, {Ordinal: 1, Value: value.NewString("changed")}}
			if n, err := tbl.UpdateWhere(byID(0, 9), sets); n != 2 || err != nil {
				t.Fatalf("updated %d rows, %v", n, err)
			}
			// The copy of chunk 0 still borrows id: it is cloned now.
			if n, err := tbl.UpdateWhere(byID(0), []Assignment{{Ordinal: 0, Value: value.NewInt(100)}}); n != 1 || err != nil {
				t.Fatalf("updated %d rows, %v", n, err)
			}
		}, []int{1}, map[int][]int{2: {0}}, 3},
		{"UpdateWhere matching nothing", func(t *testing.T, tbl *Table) {
			if n, err := tbl.UpdateWhere(byID(99), setName); n != 0 || err != nil {
				t.Fatalf("updated %d rows, %v", n, err)
			}
		}, []int{0, 1, 2}, nil, 3},
		{"UpdateWhere rejected by the schema", func(t *testing.T, tbl *Table) {
			if _, err := tbl.UpdateWhere(byID(5), []Assignment{{Ordinal: 2, Value: value.NewFloat(1)}, {Ordinal: 1, Value: value.NewInt(1)}}); err == nil {
				t.Fatal("a string column took an int")
			}
		}, []int{0, 1, 2}, nil, 3},
		{"Insert into a chunk that borrows columns", func(t *testing.T, tbl *Table) {
			if n, err := tbl.UpdateWhere(byID(8), setName); n != 1 || err != nil {
				t.Fatalf("updated %d rows, %v", n, err)
			}
			if err := tbl.Insert(mkRow(10)); err != nil {
				t.Fatal(err)
			}
		}, []int{0, 1}, nil, 3},
		{"DeleteWhere with the last row swapped in", func(t *testing.T, tbl *Table) {
			if n := tbl.DeleteWhere(byID(1)); n != 1 {
				t.Fatalf("deleted %d rows", n)
			}
		}, []int{1}, nil, 3},
		{"DeleteWhere popping the last chunk empty", func(t *testing.T, tbl *Table) {
			if n := tbl.DeleteWhere(byID(8, 9)); n != 2 {
				t.Fatalf("deleted %d rows", n)
			}
		}, []int{0, 1}, nil, 2},
		{"DeleteWhere reading survivors out of a chunk it then drops", func(t *testing.T, tbl *Table) {
			if n := tbl.DeleteWhere(byID(0, 1)); n != 2 {
				t.Fatalf("deleted %d rows", n)
			}
		}, []int{1}, nil, 2},
		{"DeleteWhere of everything", func(t *testing.T, tbl *Table) {
			if n := tbl.DeleteWhere(everyRow); n != 10 {
				t.Fatalf("deleted %d rows", n)
			}
		}, nil, nil, 0},
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
				for ord, v := range ch.cols {
					same := i < len(before.vecs) && before.vecs[i][ord] == v
					want := kept[i]
					for _, k := range c.keptCols[i] {
						want = want || k == ord
					}
					if same != want {
						t.Errorf("chunk %d column %d: same vector as before = %v, want %v", i, ord, same, want)
					}
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
		func() error {
			_, err := tbl.UpdateWhere(byID(2, 15), []Assignment{{Ordinal: 2, Value: value.Null}})
			return err
		},
		func() error { tbl.DeleteWhere(byID(0, 7, 15)); return nil },
		func() error { _, err := tbl.UpdateWhere(everyRow, setName); return err },
		func() error { tbl.DeleteWhere(everyRow); return nil },
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
