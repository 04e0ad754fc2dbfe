package index

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/value"
)

func intTable(t *testing.T, vals ...int64) *storage.Table {
	t.Helper()
	tbl := storage.NewTable("t", storage.MustSchema(
		storage.Column{Name: "k", Kind: value.KindInt},
		storage.Column{Name: "payload", Kind: value.KindString},
	))
	for _, v := range vals {
		if err := tbl.Insert([]value.Datum{value.NewInt(v), value.NewString("p")}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestNewUnknownColumn(t *testing.T) {
	tbl := intTable(t, 1)
	if _, err := New("ix", tbl, "ghost"); err == nil {
		t.Error("index on unknown column must fail")
	}
}

func TestLookup(t *testing.T) {
	tbl := intTable(t, 5, 3, 5, 1, 5, 9)
	ix, err := New("ix", tbl, "k")
	if err != nil {
		t.Fatal(err)
	}
	rows := ix.Lookup(value.NewInt(5))
	if len(rows) != 3 {
		t.Fatalf("Lookup(5) = %v, want 3 rows", rows)
	}
	for _, r := range rows {
		row, err := tbl.Row(r)
		if err != nil {
			t.Fatal(err)
		}
		if row[0].Int() != 5 {
			t.Errorf("row %d has key %d", r, row[0].Int())
		}
	}
	if got := ix.Lookup(value.NewInt(999)); len(got) != 0 {
		t.Errorf("Lookup(999) = %v, want empty", got)
	}
	if got := ix.Lookup(value.Null); got != nil {
		t.Errorf("Lookup(NULL) = %v, want nil", got)
	}
}

func TestRangeVariants(t *testing.T) {
	tbl := intTable(t, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	ix, err := New("ix", tbl, "k")
	if err != nil {
		t.Fatal(err)
	}
	keysOf := func(rows []int) []int64 {
		out := make([]int64, len(rows))
		for i, r := range rows {
			row, err := tbl.Row(r)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = row[0].Int()
		}
		return out
	}
	cases := []struct {
		name   string
		lo, hi Bound
		want   []int64
	}{
		{"closed", Bound{Value: value.NewInt(3), Inclusive: true}, Bound{Value: value.NewInt(5), Inclusive: true}, []int64{3, 4, 5}},
		{"open-lo", Bound{Value: value.NewInt(3)}, Bound{Value: value.NewInt(5), Inclusive: true}, []int64{4, 5}},
		{"open-hi", Bound{Value: value.NewInt(3), Inclusive: true}, Bound{Value: value.NewInt(5)}, []int64{3, 4}},
		{"open-both", Bound{Value: value.NewInt(3)}, Bound{Value: value.NewInt(5)}, []int64{4}},
		{"unbounded-lo", Unbounded(), Bound{Value: value.NewInt(2), Inclusive: true}, []int64{1, 2}},
		{"unbounded-hi", Bound{Value: value.NewInt(9), Inclusive: true}, Unbounded(), []int64{9, 10}},
		{"unbounded-both", Unbounded(), Unbounded(), []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{"empty", Bound{Value: value.NewInt(7)}, Bound{Value: value.NewInt(7)}, nil},
		{"inverted", Bound{Value: value.NewInt(9), Inclusive: true}, Bound{Value: value.NewInt(3), Inclusive: true}, nil},
	}
	for _, c := range cases {
		got := keysOf(ix.Range(c.lo, c.hi))
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: got %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestNullKeysExcluded(t *testing.T) {
	tbl := storage.NewTable("t", storage.MustSchema(storage.Column{Name: "k", Kind: value.KindInt}))
	if err := tbl.Insert([]value.Datum{value.Null}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]value.Datum{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]value.Datum{value.Null}); err != nil {
		t.Fatal(err)
	}
	ix, err := New("ix", tbl, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Range(Unbounded(), Unbounded()); len(got) != 1 {
		t.Errorf("unbounded range returned %d rows, want 1 (NULLs excluded)", len(got))
	}
	if ix.Len() != 3 {
		t.Errorf("Len = %d, want 3 (NULLs stored)", ix.Len())
	}
}

func TestLazyRebuildOnMutation(t *testing.T) {
	tbl := intTable(t, 1, 2, 3)
	ix, err := New("ix", tbl, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ix.Lookup(value.NewInt(2))); got != 1 {
		t.Fatalf("initial lookup = %d rows", got)
	}
	r0 := ix.Rebuilds()
	// Unchanged table: no rebuild.
	ix.Lookup(value.NewInt(1))
	if ix.Rebuilds() != r0 {
		t.Error("lookup on unchanged table must not rebuild")
	}
	// Mutate, then lookup sees the new row and rebuilds once.
	if err := tbl.Insert([]value.Datum{value.NewInt(2), value.NewString("new")}); err != nil {
		t.Fatal(err)
	}
	if got := len(ix.Lookup(value.NewInt(2))); got != 2 {
		t.Errorf("post-insert lookup = %d rows, want 2", got)
	}
	if ix.Rebuilds() != r0+1 {
		t.Errorf("Rebuilds = %d, want %d", ix.Rebuilds(), r0+1)
	}
	// Deletion invalidates positions; rebuilt index must still be correct.
	tbl.DeleteWhere(storage.MatchRows(func(r []value.Datum) bool { return r[0].Int() == 1 }))
	if got := len(ix.Lookup(value.NewInt(1))); got != 0 {
		t.Errorf("lookup of deleted key = %d rows", got)
	}
}

func TestStringKeys(t *testing.T) {
	tbl := storage.NewTable("t", storage.MustSchema(storage.Column{Name: "make", Kind: value.KindString}))
	for _, m := range []string{"Toyota", "Audi", "BMW", "Toyota", "Honda"} {
		if err := tbl.Insert([]value.Datum{value.NewString(m)}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := New("ix", tbl, "make")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ix.Lookup(value.NewString("Toyota"))); got != 2 {
		t.Errorf("Lookup(Toyota) = %d rows, want 2", got)
	}
	got := ix.Range(Bound{Value: value.NewString("B"), Inclusive: true}, Bound{Value: value.NewString("I"), Inclusive: true})
	if len(got) != 2 { // BMW, Honda
		t.Errorf("range B..I = %d rows, want 2", len(got))
	}
}

func TestSetRegistry(t *testing.T) {
	tbl := intTable(t, 1)
	s := NewSet()
	if _, err := s.Create("ix_k", tbl, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("dup", tbl, "k"); err == nil {
		t.Error("duplicate index on same column must fail")
	}
	if _, err := s.Create("ix_p", tbl, "payload"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Find("t", "k"); !ok {
		t.Error("Find(t, k) failed")
	}
	if _, ok := s.Find("t", "ghost"); ok {
		t.Error("Find(t, ghost) should fail")
	}
	if _, ok := s.Find("ghost", "k"); ok {
		t.Error("Find(ghost, k) should fail")
	}
	cols := s.ForTable("t")
	if len(cols) != 2 || cols[0] != "k" || cols[1] != "payload" {
		t.Errorf("ForTable = %v", cols)
	}
	if got := s.ForTable("ghost"); len(got) != 0 {
		t.Errorf("ForTable(ghost) = %v", got)
	}
}

// Property: a closed-range scan returns exactly the rows a full scan with
// the same predicate returns, in sorted key order.
func TestRangeMatchesScanProperty(t *testing.T) {
	f := func(keys []int64, rawLo, rawHi int64) bool {
		lo, hi := rawLo%100, rawHi%100
		if lo > hi {
			lo, hi = hi, lo
		}
		tbl := storage.NewTable("t", storage.MustSchema(storage.Column{Name: "k", Kind: value.KindInt}))
		for _, k := range keys {
			if err := tbl.Insert([]value.Datum{value.NewInt(k % 100)}); err != nil {
				return false
			}
		}
		ix, err := New("ix", tbl, "k")
		if err != nil {
			return false
		}
		got := ix.Range(
			Bound{Value: value.NewInt(lo), Inclusive: true},
			Bound{Value: value.NewInt(hi), Inclusive: true},
		)
		var want []int64
		tbl.Scan(func(_ int, r []value.Datum) bool {
			if v := r[0].Int(); v >= lo && v <= hi {
				want = append(want, v)
			}
			return true
		})
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i, pos := range got {
			row, err := tbl.Row(pos)
			if err != nil || row[0].Int() != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Regression for the normalized version semantics: InsertBatch bumps the
// table version once per batch (a staleness token, not a row count). The
// index compares versions for inequality only, so one batch bump must be
// enough to trigger exactly one rebuild that sees every new row.
func TestBatchInsertTriggersStalenessRebuild(t *testing.T) {
	tbl := intTable(t, 1, 2, 3)
	ix, err := New("ix", tbl, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Lookup(value.NewInt(2)); len(got) != 1 {
		t.Fatalf("Lookup(2) = %v, want 1 row", got)
	}
	builds := ix.Rebuilds()

	batch := make([][]value.Datum, 10)
	for i := range batch {
		batch[i] = []value.Datum{value.NewInt(int64(100 + i)), value.NewString("p")}
	}
	if err := tbl.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}

	// Every batched row must be visible through the index...
	for i := 0; i < 10; i++ {
		rows := ix.Lookup(value.NewInt(int64(100 + i)))
		if len(rows) != 1 {
			t.Fatalf("Lookup(%d) after batch = %v, want 1 row", 100+i, rows)
		}
		row, err := tbl.Row(rows[0])
		if err != nil {
			t.Fatal(err)
		}
		if row[0].Int() != int64(100+i) {
			t.Fatalf("Lookup(%d) returned row with key %d", 100+i, row[0].Int())
		}
	}
	// ...paid for by exactly one rebuild, because the whole batch advanced
	// the version once.
	if got := ix.Rebuilds(); got != builds+1 {
		t.Fatalf("Rebuilds = %d after batch, want %d (one rebuild per staleness bump)", got, builds+1)
	}
	if ix.Len() != 13 {
		t.Fatalf("Len = %d, want 13", ix.Len())
	}

	// A clean (no-DML) re-lookup must not rebuild again.
	ix.Lookup(value.NewInt(1))
	if got := ix.Rebuilds(); got != builds+1 {
		t.Fatalf("Rebuilds = %d after clean lookup, want %d", got, builds+1)
	}
}

// TestLookupAtStaleSnapshot: a statement holding a snapshot taken before
// other sessions' DML must get positions of that snapshot's rows — never a
// position past its end, never a row that moved — and must not wind the
// cached index back for everyone else.
func TestLookupAtStaleSnapshot(t *testing.T) {
	tbl := intTable(t, 5, 3, 5, 1)
	ix, err := New("ix", tbl, "k")
	if err != nil {
		t.Fatal(err)
	}
	old := tbl.Snapshot()
	if got := ix.LookupAt(old, value.NewInt(5)); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("LookupAt(old) = %v, want [0 2]", got)
	}
	// Another session deletes the 3 (the last row moves into its slot) and
	// inserts two more, then uses the index: the cache moves ahead.
	if n := tbl.DeleteWhere(storage.MatchRows(func(row []value.Datum) bool { return row[0].Int() == 3 })); n != 1 {
		t.Fatalf("deleted %d rows", n)
	}
	for _, v := range []int64{5, 5} {
		if err := tbl.Insert([]value.Datum{value.NewInt(v), value.NewString("p")}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.Lookup(value.NewInt(5)); len(got) != 4 {
		t.Fatalf("Lookup(now) = %v, want 4 rows", got)
	}
	built := ix.Rebuilds()
	got := ix.LookupAt(old, value.NewInt(5))
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("LookupAt(old) after DML = %v, want [0 2]", got)
	}
	for _, pos := range got {
		if row, err := old.Row(pos); err != nil || row[0].Int() != 5 {
			t.Fatalf("position %d in the old image: %v, %v", pos, row, err)
		}
	}
	if ix.Rebuilds() != built {
		t.Fatal("a stale snapshot rebuilt the shared index")
	}
	// An index-NL join one version behind probes once per outer row: the old
	// image is built aside once, not once per probe.
	for i := 0; i < 100; i++ {
		if got := ix.LookupAt(old, value.NewInt(5)); len(got) != 2 || got[0] != 0 || got[1] != 2 {
			t.Fatalf("probe %d of the old snapshot = %v, want [0 2]", i, got)
		}
	}
	if st := ix.Stats(); st.Aside > 1 || st.Advances != built {
		t.Fatalf("100 probes of one old snapshot: %d aside builds (want at most 1), advances %d -> %d", st.Aside, built, st.Advances)
	}
	if got := ix.Lookup(value.NewInt(5)); len(got) != 4 || ix.Rebuilds() != built {
		t.Fatalf("Lookup(now) = %v after a stale read, rebuilds %d -> %d", got, built, ix.Rebuilds())
	}
	// Once the shared image advances, the aside one is let go, and an old
	// snapshot asked for again is built again — still aside.
	if err := tbl.Insert([]value.Datum{value.NewInt(5), value.NewString("p")}); err != nil {
		t.Fatal(err)
	}
	if got := ix.Lookup(value.NewInt(5)); len(got) != 5 {
		t.Fatalf("Lookup(now) = %v, want 5 rows", got)
	}
	if got := ix.LookupAt(old, value.NewInt(5)); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("LookupAt(old) after the image advanced = %v, want [0 2]", got)
	}
	if st := ix.Stats(); st.Aside != 2 || st.Advances != built+1 {
		t.Fatalf("aside builds %d (want 2), advances %d (want %d)", st.Aside, st.Advances, built+1)
	}
}
