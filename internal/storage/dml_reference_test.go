package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/value"
)

// refTable is a table as the row-at-a-time DML knew it: the loops below are
// the bodies UpdateWhere and DeleteWhere had before they went columnar, over
// plain rows, kept here as the reference the columnar bodies must agree with
// — contents in order, affected counts, version and UDI.
type refTable struct {
	rows    [][]value.Datum
	version uint64
	udi     UDI
}

func (r *refTable) updateWhere(pred func(row []value.Datum) bool, set func(row []value.Datum)) int {
	n := 0
	for _, row := range r.rows {
		if !pred(row) {
			continue
		}
		set(row)
		n++
	}
	if n > 0 {
		r.version++
		r.udi.Updates += int64(n)
	}
	return n
}

func (r *refTable) deleteWhere(pred func(row []value.Datum) bool) int {
	n := 0
	for i := 0; i < len(r.rows); {
		if !pred(r.rows[i]) {
			i++
			continue
		}
		last := len(r.rows) - 1
		if i != last {
			r.rows[i] = r.rows[last]
		}
		r.rows = r.rows[:last]
		n++
		// Re-examine the swapped-in row at position i.
	}
	if n > 0 {
		r.version++
		r.udi.Deletes += int64(n)
	}
	return n
}

func tableRows(snap *Snapshot) [][]value.Datum {
	rows := make([][]value.Datum, 0, snap.NumRows())
	snap.Scan(func(_ int, row []value.Datum) bool {
		rows = append(rows, row)
		return true
	})
	return rows
}

// TestDMLMatchesRowLoopReference: random tables of one to four chunks with
// NULLs in every nullable column, a few UPDATEs and DELETEs each over match
// sets of every shape (every row, the tail only, the head only, none, a
// scatter), with and without a snapshot taken before the write — so vectors
// are written both in place and through copy-on-write, and a chunk that
// borrows columns from an earlier update meets appends, deletes and further
// updates. After every statement the table must equal the reference in order,
// and every snapshot held must still read what it captured.
func TestDMLMatchesRowLoopReference(t *testing.T) {
	schema := MustSchema(
		Column{Name: "id", Kind: value.KindInt},
		Column{Name: "k", Kind: value.KindInt},
		Column{Name: "s", Kind: value.KindString},
		Column{Name: "f", Kind: value.KindFloat},
	)
	type heldSnap struct {
		snap *Snapshot
		rows [][]value.Datum
	}
	shapes := map[string]int{}
	for seed := int64(0); seed < 1200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cs := 1 + rng.Intn(9)
		nextID := int64(0)
		cell := func(ord int) value.Datum {
			if rng.Intn(4) == 0 {
				return value.Null
			}
			switch ord {
			case 1:
				return value.NewInt(int64(rng.Intn(5)))
			case 2:
				return value.NewString(fmt.Sprint("s", rng.Intn(5)))
			default:
				return value.NewFloat(float64(rng.Intn(5)) / 2)
			}
		}
		newRows := func(n int) [][]value.Datum {
			rows := make([][]value.Datum, n)
			for i := range rows {
				rows[i] = []value.Datum{value.NewInt(nextID), cell(1), cell(2), cell(3)}
				nextID++
			}
			return rows
		}
		tbl := NewTableWithChunkSize("t", schema, cs)
		initial := newRows(1 + rng.Intn(4*cs))
		if err := tbl.InsertBatch(initial); err != nil {
			t.Fatal(err)
		}
		ref := &refTable{version: tbl.Snapshot().Version(), udi: tbl.UDICounter()}
		for _, row := range initial {
			ref.rows = append(ref.rows, append([]value.Datum(nil), row...))
		}
		var held []heldSnap
		hold := func() {
			snap := tbl.Snapshot()
			held = append(held, heldSnap{snap, tableRows(snap)})
		}
		hold() // one image lives through every write

		for op, ops := 0, 1+rng.Intn(5); op < ops; op++ {
			where := fmt.Sprintf("seed %d (chunk size %d) statement %d", seed, cs, op)
			if rng.Intn(2) == 0 {
				hold()
			}
			// The match set, by position in the table as it is now.
			n := len(ref.rows)
			doomed := make(map[int64]bool)
			shape := []string{"every row", "tail", "head", "none", "scatter", "scatter", "one row"}[rng.Intn(7)]
			for pos, row := range ref.rows {
				var hit bool
				switch shape {
				case "every row":
					hit = true
				case "tail":
					hit = pos >= n-1-n/3
				case "head":
					hit = pos <= n/3
				case "scatter":
					hit = rng.Intn(3) == 0
				case "one row":
					hit = pos == int(seed)%n
				}
				if hit {
					doomed[row[0].Int()] = true
				}
			}
			shapes[shape]++
			pred := func(row []value.Datum) bool { return doomed[row[0].Int()] }

			var got, want int
			switch rng.Intn(5) {
			case 0, 1: // UPDATE of one to three columns, a column perhaps twice
				var sets []Assignment
				for k := 1 + rng.Intn(3); k > 0; k-- {
					ord := 1 + rng.Intn(3)
					sets = append(sets, Assignment{Ordinal: ord, Value: cell(ord)})
				}
				var err error
				if got, err = tbl.UpdateWhere(MatchRows(pred), sets); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				want = ref.updateWhere(pred, func(row []value.Datum) {
					for _, a := range sets {
						row[a.Ordinal] = a.Value
					}
				})
			case 2, 3:
				got = tbl.DeleteWhere(MatchRows(pred))
				want = ref.deleteWhere(pred)
			case 4: // an append into whatever the writes before it left
				rows := newRows(1 + rng.Intn(cs+1))
				if err := tbl.InsertBatch(rows); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				ref.rows = append(ref.rows, rows...)
				ref.version++
				ref.udi.Inserts += int64(len(rows))
			}
			if got != want {
				t.Fatalf("%s: %d rows affected, the row loop affects %d", where, got, want)
			}
			if v, u := tbl.Snapshot().Version(), tbl.UDICounter(); v != ref.version || u != ref.udi {
				t.Fatalf("%s: version %d UDI %+v, the row loop leaves version %d UDI %+v", where, v, u, ref.version, ref.udi)
			}
			now := tbl.Snapshot()
			if rows := tableRows(now); len(rows) != len(ref.rows) || len(rows) > 0 && !reflect.DeepEqual(rows, ref.rows) {
				t.Fatalf("%s (%s): table and row loop disagree\n got %v\nwant %v", where, shape, rows, ref.rows)
			}
			for ci := 0; ci < now.NumChunks(); ci++ {
				if rows := now.Chunk(ci).Rows(); rows == 0 || ci < now.NumChunks()-1 && rows != cs {
					t.Fatalf("%s: chunk %d of %d holds %d rows", where, ci, now.NumChunks(), rows)
				}
			}
			for _, h := range held {
				if rows := tableRows(h.snap); !reflect.DeepEqual(rows, h.rows) {
					t.Fatalf("%s: the snapshot of v%d changed under the write\n got %v\nwant %v", where, h.snap.Version(), rows, h.rows)
				}
			}
		}
	}
	t.Logf("match sets drawn: %v", shapes)
}
