package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/value"
)

func mkRow(i int) []value.Datum {
	return []value.Datum{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("r%d", i)), value.NewFloat(float64(i) / 2)}
}

func fillTable(t *testing.T, tbl *Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := tbl.Insert(mkRow(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// Regression for the pre-columnar locking bug: Table.Scan held the read
// lock across user callbacks, so a callback writing to the same table
// self-deadlocked on the write lock. Snapshot scans hold no lock during
// callbacks, so reentrant DML must simply work.
func TestScanCallbackReentrantInsert(t *testing.T) {
	tbl := NewTableWithChunkSize("t", testSchema(t), 4)
	fillTable(t, tbl, 10)

	done := make(chan struct{})
	go func() {
		defer close(done)
		seen := 0
		tbl.Scan(func(_ int, row []value.Datum) bool {
			seen++
			// Reentrant write from inside the callback.
			if err := tbl.Insert(mkRow(1000 + seen)); err != nil {
				t.Errorf("reentrant insert: %v", err)
			}
			return true
		})
		if seen != 10 {
			t.Errorf("scan saw %d rows of its snapshot, want 10", seen)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scan with reentrant insert deadlocked")
	}
	if got := tbl.RowCount(); got != 20 {
		t.Fatalf("RowCount = %d, want 20", got)
	}
}

// Regression for the second half of the locking bug: a long-running scan
// (slow user callback) must not block concurrent DML. The scan callback
// parks on a channel mid-scan; every DML flavor must complete while it is
// parked.
func TestConcurrentDMLDuringSlowScan(t *testing.T) {
	tbl := NewTableWithChunkSize("t", testSchema(t), 4)
	fillTable(t, tbl, 12)

	scanEntered := make(chan struct{})
	release := make(chan struct{})
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		first := true
		tbl.Scan(func(_ int, row []value.Datum) bool {
			if first {
				first = false
				close(scanEntered)
				<-release // park mid-scan with rows still to visit
			}
			return true
		})
	}()

	<-scanEntered
	dmlDone := make(chan struct{})
	go func() {
		defer close(dmlDone)
		if err := tbl.Insert(mkRow(100)); err != nil {
			t.Errorf("insert during scan: %v", err)
		}
		if err := tbl.InsertBatch([][]value.Datum{mkRow(101), mkRow(102)}); err != nil {
			t.Errorf("batch insert during scan: %v", err)
		}
		if _, err := tbl.UpdateWhere(
			MatchRows(func(r []value.Datum) bool { return r[0].Int() == 100 }),
			[]Assignment{{Ordinal: 2, Value: value.NewFloat(9)}},
		); err != nil {
			t.Errorf("update during scan: %v", err)
		}
		tbl.DeleteWhere(MatchRows(func(r []value.Datum) bool { return r[0].Int() == 101 }))
	}()
	select {
	case <-dmlDone:
	case <-time.After(10 * time.Second):
		t.Fatal("DML blocked behind a slow scan")
	}
	close(release)
	<-scanDone
	if got := tbl.RowCount(); got != 14 {
		t.Fatalf("RowCount = %d, want 14", got)
	}
}

// Canary for the aliasing bug: rows handed out by Scan used to be live
// windows into storage, so retaining one and then mutating the table
// corrupted the retained copy. Snapshot rows are freshly materialized and
// must never change under later DML.
func TestRetainedScanRowsImmutableAfterDML(t *testing.T) {
	tbl := NewTableWithChunkSize("t", testSchema(t), 4)
	fillTable(t, tbl, 10)

	var retained [][]value.Datum
	tbl.Scan(func(_ int, row []value.Datum) bool {
		retained = append(retained, row) // deliberately no copy
		return true
	})
	want := make([][]value.Datum, len(retained))
	for i, r := range retained {
		want[i] = append([]value.Datum(nil), r...)
	}

	if _, err := tbl.UpdateWhere(
		MatchRows(func([]value.Datum) bool { return true }),
		[]Assignment{{Ordinal: 1, Value: value.NewString("mutated")}, {Ordinal: 2, Value: value.NewFloat(-1)}},
	); err != nil {
		t.Fatal(err)
	}
	tbl.DeleteWhere(MatchRows(func(r []value.Datum) bool { return r[0].Int()%2 == 0 }))
	fillTable(t, tbl, 5)

	for i := range retained {
		if !reflect.DeepEqual(retained[i], want[i]) {
			t.Fatalf("retained row %d mutated by later DML: %v, want %v", i, retained[i], want[i])
		}
	}
}

// A snapshot keeps seeing exactly the rows it captured, whatever happens to
// the table afterwards.
func TestSnapshotIsolation(t *testing.T) {
	tbl := NewTableWithChunkSize("t", testSchema(t), 4)
	fillTable(t, tbl, 9)
	snap := tbl.Snapshot()

	for id := int64(0); id < 9; id++ { // an UPDATE assigns constants: one statement a row
		if _, err := tbl.UpdateWhere(
			MatchRows(func(r []value.Datum) bool { return r[0].Int() == id }),
			[]Assignment{{Ordinal: 0, Value: value.NewInt(id + 1000)}},
		); err != nil {
			t.Fatal(err)
		}
	}
	tbl.DeleteWhere(MatchRows(func(r []value.Datum) bool { return r[0].Int() >= 1005 }))
	fillTable(t, tbl, 3)

	if snap.NumRows() != 9 {
		t.Fatalf("snapshot NumRows = %d, want 9", snap.NumRows())
	}
	for i := 0; i < 9; i++ {
		row, err := snap.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(row, mkRow(i)) {
			t.Fatalf("snapshot row %d = %v, want %v", i, row, mkRow(i))
		}
	}
}

// Chunk-boundary coverage: row counts straddling every boundary shape for a
// tiny chunk size — empty, single row, exactly one chunk, one row either
// side of each of the first two boundaries.
func TestChunkBoundaries(t *testing.T) {
	const cs = 4
	for _, n := range []int{0, 1, cs - 1, cs, cs + 1, 2*cs - 1, 2 * cs, 2*cs + 1, 3*cs + 2} {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			tbl := NewTableWithChunkSize("t", testSchema(t), cs)
			fillTable(t, tbl, n)
			snap := tbl.Snapshot()

			wantChunks := (n + cs - 1) / cs
			if snap.NumChunks() != wantChunks {
				t.Fatalf("NumChunks = %d, want %d", snap.NumChunks(), wantChunks)
			}
			// Fullness invariant: every chunk but the tail is exactly full.
			for ci := 0; ci < snap.NumChunks()-1; ci++ {
				if snap.Chunk(ci).Rows() != cs {
					t.Fatalf("chunk %d has %d rows, want full (%d)", ci, snap.Chunk(ci).Rows(), cs)
				}
			}
			// Scan order and content.
			idx := 0
			snap.Scan(func(rowIdx int, row []value.Datum) bool {
				if rowIdx != idx || !reflect.DeepEqual(row, mkRow(idx)) {
					t.Fatalf("scan pos %d: rowIdx=%d row=%v", idx, rowIdx, row)
				}
				idx++
				return true
			})
			if idx != n {
				t.Fatalf("scan visited %d rows, want %d", idx, n)
			}
			// Point lookups across boundaries.
			for i := 0; i < n; i++ {
				row, err := snap.Row(i)
				if err != nil {
					t.Fatal(err)
				}
				if row[0].Int() != int64(i) {
					t.Fatalf("Row(%d)[0] = %v", i, row[0])
				}
			}
			if _, err := snap.Row(n); err == nil {
				t.Fatal("Row past the end must error")
			}
			// Sub-ranges hugging the chunk boundaries, including clamped and
			// empty ones.
			for _, r := range [][2]int{{0, n}, {0, cs}, {cs - 1, cs + 1}, {cs, 2 * cs}, {n - 1, n + 5}, {n, n + 1}, {-3, 2}} {
				lo, hi := r[0], r[1]
				var got []int
				snap.ScanRange(lo, hi, func(rowIdx int, _ []value.Datum) bool {
					got = append(got, rowIdx)
					return true
				})
				clo, chi := lo, hi
				if clo < 0 {
					clo = 0
				}
				if chi > n {
					chi = n
				}
				want := 0
				if chi > clo {
					want = chi - clo
				}
				if len(got) != want {
					t.Fatalf("ScanRange(%d,%d) visited %d rows, want %d", lo, hi, len(got), want)
				}
				for k, ri := range got {
					if ri != clo+k {
						t.Fatalf("ScanRange(%d,%d) pos %d = row %d, want %d", lo, hi, k, ri, clo+k)
					}
				}
			}
		})
	}
}

// Deletes swap the globally last row into the hole; whatever the delete
// pattern, the fullness invariant must hold and scans over ranges must see
// exactly the surviving multiset.
func TestDeleteThenScanRangesKeepInvariant(t *testing.T) {
	const cs = 4
	tbl := NewTableWithChunkSize("t", testSchema(t), cs)
	fillTable(t, tbl, 3*cs+2) // 14 rows, 4 chunks

	// Delete a scatter crossing chunk boundaries.
	tbl.DeleteWhere(MatchRows(func(r []value.Datum) bool {
		id := r[0].Int()
		return id == 0 || id == 3 || id == 4 || id == 11 || id == 13
	}))

	snap := tbl.Snapshot()
	if snap.NumRows() != 9 {
		t.Fatalf("NumRows = %d, want 9", snap.NumRows())
	}
	for ci := 0; ci < snap.NumChunks()-1; ci++ {
		if snap.Chunk(ci).Rows() != cs {
			t.Fatalf("chunk %d not full after deletes: %d rows", ci, snap.Chunk(ci).Rows())
		}
	}
	survivors := map[int64]bool{}
	snap.Scan(func(_ int, row []value.Datum) bool {
		id := row[0].Int()
		if survivors[id] {
			t.Fatalf("row %d seen twice", id)
		}
		survivors[id] = true
		return true
	})
	for _, id := range []int64{1, 2, 5, 6, 7, 8, 9, 10, 12} {
		if !survivors[id] {
			t.Fatalf("row %d missing after deletes", id)
		}
	}
	// Ranged scans partition the table: the pieces must add to the whole.
	total := 0
	for lo := 0; lo < snap.NumRows(); lo += 3 {
		snap.ScanRange(lo, lo+3, func(_ int, _ []value.Datum) bool {
			total++
			return true
		})
	}
	if total != 9 {
		t.Fatalf("partitioned scans saw %d rows, want 9", total)
	}
}

// Pin the normalized version semantics: the counter is a staleness token —
// Insert advances it once per call, InsertBatch once per batch (however
// many rows), and consumers only ever compare it for inequality.
func TestVersionStalenessTokenSemantics(t *testing.T) {
	tbl := NewTableWithChunkSize("t", testSchema(t), 4)

	v0 := tbl.Version()
	if err := tbl.Insert(mkRow(0)); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() != v0+1 {
		t.Fatalf("Insert: version %d -> %d, want +1", v0, tbl.Version())
	}

	v1 := tbl.Version()
	batch := make([][]value.Datum, 10)
	for i := range batch {
		batch[i] = mkRow(i + 1)
	}
	if err := tbl.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() != v1+1 {
		t.Fatalf("InsertBatch(10 rows): version %d -> %d, want exactly +1 (staleness token, not a row count)", v1, tbl.Version())
	}
	if got := tbl.UDICounter().Inserts; got != 11 {
		t.Fatalf("UDI.Inserts = %d, want 11 (UDI counts per-row activity)", got)
	}

	// Empty batch is a no-op: no version bump, no staleness signal.
	v2 := tbl.Version()
	if err := tbl.InsertBatch(nil); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() != v2 {
		t.Fatal("empty InsertBatch must not bump the version")
	}
}

// Property test: a random op sequence against a tiny chunk size must leave
// the table exactly equal to a plain-slice reference model implementing the
// same swap-delete semantics.
func TestChunkedStorageMatchesReferenceModel(t *testing.T) {
	schema := testSchema(t)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cs := 1 + rng.Intn(5)
		tbl := NewTableWithChunkSize("t", schema, cs)
		var model [][]value.Datum
		next := 0

		for op := 0; op < 200; op++ {
			switch rng.Intn(4) {
			case 0: // insert
				r := mkRow(next)
				next++
				if err := tbl.Insert(r); err != nil {
					t.Fatal(err)
				}
				model = append(model, r)
			case 1: // batch insert
				k := rng.Intn(2 * cs)
				batch := make([][]value.Datum, k)
				for i := range batch {
					batch[i] = mkRow(next)
					next++
				}
				if err := tbl.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
				model = append(model, batch...)
			case 2: // update a random residue class
				mod := int64(2 + rng.Intn(5))
				bump := int64(rng.Intn(100))
				pred := func(r []value.Datum) bool { return r[0].Int()%mod == 0 }
				if _, err := tbl.UpdateWhere(MatchRows(pred), []Assignment{{Ordinal: 2, Value: value.NewFloat(float64(bump))}}); err != nil {
					t.Fatal(err)
				}
				for _, r := range model {
					if pred(r) {
						r[2] = value.NewFloat(float64(bump))
					}
				}
			case 3: // delete a random residue class, swap-delete in the model
				mod := int64(2 + rng.Intn(6))
				pred := func(r []value.Datum) bool { return r[0].Int()%mod == 1 }
				tbl.DeleteWhere(MatchRows(pred))
				for i := 0; i < len(model); {
					if pred(model[i]) {
						model[i] = model[len(model)-1]
						model = model[:len(model)-1]
						continue // re-examine the swapped-in row
					}
					i++
				}
			}
		}

		if tbl.RowCount() != len(model) {
			t.Fatalf("seed %d: RowCount %d vs model %d", seed, tbl.RowCount(), len(model))
		}
		var got [][]value.Datum
		tbl.Scan(func(_ int, row []value.Datum) bool {
			got = append(got, row)
			return true
		})
		if !reflect.DeepEqual(got, model) {
			t.Fatalf("seed %d (chunkSize %d): table diverged from reference model\n got %v\nwant %v", seed, cs, got, model)
		}
		// Fullness invariant after the whole sequence.
		snap := tbl.Snapshot()
		for ci := 0; ci < snap.NumChunks()-1; ci++ {
			if snap.Chunk(ci).Rows() != cs {
				t.Fatalf("seed %d: chunk %d not full", seed, ci)
			}
		}
	}
}

// Hammer snapshots against concurrent mutation under -race: snapshot
// readers must always see a consistent image while writers churn.
func TestSnapshotReadersUnderConcurrentDML(t *testing.T) {
	tbl := NewTableWithChunkSize("t", testSchema(t), 8)
	fillTable(t, tbl, 64)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					_ = tbl.Insert(mkRow(1000*w + i))
				case 1:
					_, _ = tbl.UpdateWhere(
						MatchRows(func(r []value.Datum) bool { return r[0].Int()%7 == int64(w) }),
						[]Assignment{{Ordinal: 2, Value: value.NewFloat(float64(i))}},
					)
				case 2:
					tbl.DeleteWhere(MatchRows(func(r []value.Datum) bool { return r[0].Int() == int64(1000*w+i-30) }))
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				snap := tbl.Snapshot()
				n := 0
				snap.Scan(func(_ int, row []value.Datum) bool {
					if len(row) != 3 {
						t.Errorf("torn row: %v", row)
						return false
					}
					n++
					return true
				})
				if n != snap.NumRows() {
					t.Errorf("scan saw %d rows, snapshot says %d", n, snap.NumRows())
					return
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}
