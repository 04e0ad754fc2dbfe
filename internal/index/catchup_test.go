package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// The catch-up model: a byte script drives DML of every shape against a
// three-column table (id, k, other) with an index on k, and after every step
// each probe shape on the current snapshot and on every held one must equal
// a naive scan of that snapshot under Datum.Compare — the order and the
// bound semantics the index had when it re-sorted Datum entries per version.

// script hands out the bytes that drive a model run; it reads zeros once the
// data is spent, so every prefix of a script is a script.
type script struct {
	data []byte
	pos  int
}

func (s *script) byte() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

func (s *script) intn(n int) int { return int(s.byte()) % n }

func (s *script) spent() bool { return s.pos >= len(s.data) }

// Key domains: few distinct values so duplicates are the rule, plus the
// values where orders could disagree — −0/+0, ±Inf and NaN under two
// payloads for floats, the extremes and an int that float64 rounds for ints,
// the empty string — and where order keys tie: strings longer than 8 bytes
// that share their first 8, "a" beside "a\x00".
var keyDomains = map[value.Kind][]value.Datum{
	value.KindInt: {
		value.NewInt(0), value.NewInt(1), value.NewInt(2), value.NewInt(3), value.NewInt(7),
		value.NewInt(-4), value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64), value.NewInt(1<<53 + 1),
	},
	value.KindFloat: {
		value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(1), value.NewFloat(2.5),
		value.NewFloat(-1.5), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)), value.NewFloat(1e18),
		value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0xFFF0000000000F00)),
	},
	value.KindString: {
		value.NewString(""), value.NewString("a"), value.NewString("ab"), value.NewString("b"),
		value.NewString("Toyota"), value.NewString("é"), value.NewString("Toyota Camry"),
		value.NewString("Toyota Corolla"), value.NewString("a\x00"),
	},
}

// foreignBounds probe every column kind with bounds of the other kinds: an
// int column with float bounds (NaN among them), numbers against strings,
// NULL — and a string column with strings no row holds whose order keys tie
// with some that rows do.
var foreignBounds = []value.Datum{
	value.NewFloat(2.5), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(1 << 53), value.NewFloat(math.Inf(-1)),
	value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0x7FF0000000000001)),
	value.NewInt(2), value.NewInt(-4), value.NewString("b"), value.NewString("Toyota Co"), value.NewString("a\x00\x00"), value.Null,
}

const (
	modelMaxRows  = 300
	modelMaxSteps = 120
	modelMaxHeld  = 3
)

type model struct {
	tb     testing.TB
	s      *script
	tbl    *storage.Table
	ix     *Index
	domain []value.Datum
	nextID int64
	held   []*storage.Snapshot
}

// runModel plays one script. The first two bytes pick the key kind and the
// chunk size (4 or 64, so chunk boundaries are crossed constantly).
func runModel(tb testing.TB, data []byte) ImageStats {
	s := &script{data: data}
	kind := []value.Kind{value.KindInt, value.KindFloat, value.KindString}[s.intn(3)]
	chunk := []int{4, 64}[s.intn(2)]
	tbl := storage.NewTableWithChunkSize("t", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "k", Kind: kind},
		storage.Column{Name: "other", Kind: value.KindInt},
	), chunk)
	ix, err := New(tbl, "k")
	if err != nil {
		tb.Fatal(err)
	}
	m := &model{tb: tb, s: s, tbl: tbl, ix: ix, domain: keyDomains[kind]}
	if err := tbl.InsertBatch(m.newRows(s.intn(200))); err != nil {
		tb.Fatal(err)
	}
	for step := 0; step < modelMaxSteps && !s.spent(); step++ {
		// One to three statements between two uses of the index, so it also
		// catches up across versions it never saw.
		for n := 1 + s.intn(3); n > 0; n-- {
			m.mutate()
		}
		m.check(fmt.Sprintf("%v/chunk %d/step %d", kind, chunk, step))
	}
	return ix.Stats()
}

func (m *model) pickKey() value.Datum {
	b := m.s.byte()
	if b%8 == 0 {
		return value.Null
	}
	return m.domain[int(b/8)%len(m.domain)]
}

func (m *model) newRows(n int) [][]value.Datum {
	rows := make([][]value.Datum, n)
	for i := range rows {
		m.nextID++
		rows[i] = []value.Datum{value.NewInt(m.nextID), m.pickKey(), value.NewInt(int64(m.s.intn(7)))}
	}
	return rows
}

func (m *model) update(pred func(row []value.Datum) bool, ordinal int, v value.Datum) {
	if _, err := m.tbl.UpdateWhere(storage.MatchRows(pred), []storage.Assignment{{Ordinal: ordinal, Value: v}}); err != nil {
		m.tb.Fatal(err)
	}
}

func (m *model) mutate() {
	chunk := m.tbl.Snapshot().ChunkSize()
	rows := m.tbl.RowCount()
	// Emptying the table and rewriting half of it are drawn half as often as
	// the rest: both end in a full sort, and so does every delta on the small
	// table the first leaves behind.
	op := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7, 8, 9}[m.s.intn(16)]
	if rows > modelMaxRows {
		op = 6
	}
	mod := int64(2 + m.s.intn(24))
	rem := int64(m.s.intn(int(mod)))
	someIDs := func(row []value.Datum) bool { return row[0].Int()%mod == rem }
	switch op {
	case 0: // one row
		if err := m.tbl.Insert(m.newRows(1)[0]); err != nil {
			m.tb.Fatal(err)
		}
	case 1: // a batch that crosses a chunk boundary more often than not
		if err := m.tbl.InsertBatch(m.newRows(1 + m.s.intn(min(2*chunk, 24)))); err != nil {
			m.tb.Fatal(err)
		}
	case 2: // the indexed column
		m.update(someIDs, 1, m.pickKey())
	case 3: // another column: the index has nothing to move, or to read
		m.update(someIDs, 2, value.NewInt(7+rem))
	case 4: // to NULL, or every NULL to a key
		if m.s.byte()&1 == 0 {
			m.update(someIDs, 1, value.Null)
		} else {
			m.update(func(row []value.Datum) bool { return row[1].IsNull() }, 1, m.domain[m.s.intn(len(m.domain))])
		}
	case 5: // a run of rows at the head, in the middle or at the tail
		if rows == 0 {
			return
		}
		n := 1 + m.s.intn(max(1, rows/16))
		start := []int{0, (rows - n) / 2, rows - n}[m.s.intn(3)]
		doomed := make(map[int64]bool, n)
		snap := m.tbl.Snapshot()
		for pos := start; pos < start+n; pos++ {
			row, err := snap.Row(pos)
			if err != nil {
				m.tb.Fatal(err)
			}
			doomed[row[0].Int()] = true
		}
		m.tbl.DeleteWhere(storage.MatchRows(func(row []value.Datum) bool { return doomed[row[0].Int()] }))
	case 6: // everything, then perhaps a refill
		m.tbl.DeleteWhere(storage.MatchRows(func([]value.Datum) bool { return true }))
		if n := m.s.intn(200); n > 0 {
			if err := m.tbl.InsertBatch(m.newRows(n)); err != nil {
				m.tb.Fatal(err)
			}
		}
	case 7: // half the table at once: past the fallback threshold
		m.update(func(row []value.Datum) bool { return row[0].Int()%2 == rem%2 }, 1, m.pickKey())
	case 8, 9: // hold the current image across what follows
		if len(m.held) == modelMaxHeld {
			m.held = m.held[1:]
		}
		m.held = append(m.held, m.tbl.Snapshot())
	}
}

// check compares the index with a naive scan on the current snapshot and on
// every held one, for three scripted bound values in every shape.
func (m *model) check(where string) {
	snaps := append([]*storage.Snapshot{m.tbl.Snapshot()}, m.held...)
	if m.s.byte()&1 == 1 { // old images first: the shared one has not caught up yet
		slices.Reverse(snaps)
	}
	candidates := append(append([]value.Datum(nil), m.domain...), foreignBounds...)
	for _, snap := range snaps {
		keys := snap.ColumnValues(1)
		for n := 0; n < 3; n++ {
			v := candidates[m.s.intn(len(candidates))]
			w := candidates[m.s.intn(len(candidates))]
			for _, r := range [][2]value.Bound{
				{value.Bound{Value: v, Inclusive: true}, value.Bound{Value: v, Inclusive: true}},
				{value.Unbounded(), value.Bound{Value: v}},
				{value.Unbounded(), value.Bound{Value: v, Inclusive: true}},
				{value.Bound{Value: v}, value.Unbounded()},
				{value.Bound{Value: v, Inclusive: true}, value.Unbounded()},
				{value.Bound{Value: v, Inclusive: true}, value.Bound{Value: w, Inclusive: true}},
				{value.Bound{Value: v}, value.Bound{Value: w}},
			} {
				got, want := m.ix.RangeAt(snap, r[0], r[1]), naiveRange(keys, r[0], r[1])
				if !slices.Equal(got, want) {
					m.tb.Fatalf("%s: RangeAt(v%d, %s, %s) = %v, naive scan %v", where, snap.Version(), boundString(r[0]), boundString(r[1]), got, want)
				}
			}
			if got, want := m.ix.LookupAt(snap, v), naiveLookup(keys, v); !slices.Equal(got, want) {
				m.tb.Fatalf("%s: LookupAt(v%d, %s) = %v, naive scan %v", where, snap.Version(), v, got, want)
			}
		}
		if got, want := m.ix.RangeAt(snap, value.Unbounded(), value.Unbounded()), naiveRange(keys, value.Unbounded(), value.Unbounded()); !slices.Equal(got, want) {
			m.tb.Fatalf("%s: full range of v%d = %v, naive scan %v", where, snap.Version(), got, want)
		}
	}
	if got, want := m.ix.Len(), m.tbl.RowCount(); got != want {
		m.tb.Fatalf("%s: Len = %d, table has %d rows", where, got, want)
	}
}

func boundString(b value.Bound) string {
	switch {
	case b.IsUnbounded():
		return "unbounded"
	case b.Inclusive:
		return "[" + b.Value.String() + "]"
	default:
		return "(" + b.Value.String() + ")"
	}
}

// naiveRange is Range by definition: the positions of the non-NULL keys
// inside the bounds under Datum.Compare, in key order, ties by position.
func naiveRange(keys []value.Datum, lo, hi value.Bound) []int {
	var out []int
	for pos, k := range keys {
		if k.IsNull() {
			continue
		}
		if !lo.IsUnbounded() {
			if c := k.Compare(lo.Value); c < 0 || c == 0 && !lo.Inclusive {
				continue
			}
		}
		if !hi.IsUnbounded() {
			if c := k.Compare(hi.Value); c > 0 || c == 0 && !hi.Inclusive {
				continue
			}
		}
		out = append(out, pos)
	}
	sort.SliceStable(out, func(i, j int) bool { return keys[out[i]].Compare(keys[out[j]]) < 0 })
	return out
}

func naiveLookup(keys []value.Datum, key value.Datum) []int {
	if key.IsNull() {
		return nil
	}
	return naiveRange(keys, value.Bound{Value: key, Inclusive: true}, value.Bound{Value: key, Inclusive: true})
}

// TestCatchUpMatchesScan runs random scripts for every key kind and both
// chunk sizes, and requires that the run exercised both ways an image moves
// and, for every kind, the sorts past the small-input one: delta lists
// scattered on a digit and buckets partitioned in place — and for strings,
// runs of one order key sorted on their next bytes.
func TestCatchUpMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var total ImageStats
	for kind := 0; kind < 3; kind++ {
		var sorts ImageStats
		for chunk := 0; chunk < 2; chunk++ {
			for run := 0; run < 6; run++ {
				data := make([]byte, 2+rng.Intn(3000))
				rng.Read(data)
				data[0], data[1] = byte(kind), byte(chunk)
				st := runModel(t, data)
				total.Advances += st.Advances
				total.Full += st.Full
				total.Aside += st.Aside
				sorts.Scattered += st.Scattered
				sorts.InPlace += st.InPlace
				sorts.StringTies += st.StringTies
			}
		}
		t.Logf("kind %d: %d delta lists scattered, %d buckets partitioned in place, %d string tie runs", kind, sorts.Scattered, sorts.InPlace, sorts.StringTies)
		if sorts.Scattered == 0 || sorts.InPlace == 0 || kind == 2 && sorts.StringTies == 0 {
			t.Errorf("kind %d: the scripts should take every sort path, not only the small-input one: %+v", kind, sorts)
		}
	}
	t.Logf("%d advances, %d of them full sorts, %d aside images", total.Advances, total.Full, total.Aside)
	if total.Full == 0 || total.Full*2 > total.Advances || total.Aside == 0 {
		t.Errorf("the scripts should mostly catch up, sometimes re-sort, sometimes serve an old snapshot: %+v", total)
	}
}

// TestDeltaListsArriveInRowOrder states the precondition the delta sort is
// stable on: diff appends what changed in ascending position order, so a
// sort stable on the order key alone yields (key, row) order. It runs every
// shape of DML between two diffs and checks the lists as diff leaves them,
// then that sortList refuses a list out of row order.
func TestDeltaListsArriveInRowOrder(t *testing.T) {
	for _, kind := range []value.Kind{value.KindInt, value.KindFloat, value.KindString} {
		tbl := seqTable(t, kind, 700, 64)
		im := newImage(kind, 1, new(sortPaths))
		im.advance(tbl.Snapshot())
		for i, dml := range []func(){
			func() {
				tbl.DeleteWhere(storage.MatchRows(func(row []value.Datum) bool { return row[0].Int()%7 == 3 }))
			},
			func() {
				if err := tbl.InsertBatch(seqRows(kind, 700, 90)); err != nil {
					t.Fatal(err)
				}
			},
			func() {
				if _, err := tbl.UpdateWhere(storage.MatchRows(func(row []value.Datum) bool { return row[0].Int()%5 == 1 }),
					[]storage.Assignment{{Ordinal: 1, Value: seqKey(kind, 11)}}); err != nil {
					t.Fatal(err)
				}
			},
		} {
			dml()
			to := tbl.Snapshot()
			var removed, added []int32
			switch im := im.(type) {
			case *typed[int64]:
				im.diff(to, math.MaxInt)
				removed, added = im.removed.rows, im.added.rows
			case *typed[float64]:
				im.diff(to, math.MaxInt)
				removed, added = im.removed.rows, im.added.rows
			case *typed[string]:
				im.diff(to, math.MaxInt)
				removed, added = im.removed.rows, im.added.rows
			}
			if len(added) == 0 {
				t.Fatalf("%v, statement %d: no entries added, which proves nothing", kind, i)
			}
			for _, l := range []struct {
				what string
				rows []int32
			}{{"removed", removed}, {"added", added}} {
				for j := 1; j < len(l.rows); j++ {
					if l.rows[j] <= l.rows[j-1] {
						t.Fatalf("%v, statement %d: %s rows out of order: %v", kind, i, l.what, l.rows)
					}
				}
			}
			im.advance(to)
		}
	}

	im := newImage(value.KindInt, 1, new(sortPaths)).(*typed[int64])
	defer func() {
		if recover() == nil {
			t.Error("sortList accepted a list out of row order")
		}
	}()
	im.sortList(entries[int64]{keys: []uint64{3, 1}, rows: []int32{5, 2}}, im.resize(entries[int64]{}, 2))
}

// FuzzIndexCatchUp drives the same model from the fuzzer's bytes.
func FuzzIndexCatchUp(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for kind := byte(0); kind < 3; kind++ {
		for chunk := byte(0); chunk < 2; chunk++ {
			data := make([]byte, 400)
			rng.Read(data)
			data[0], data[1] = kind, chunk
			f.Add(data)
		}
	}
	// Insert a batch, hold it, delete everything, refill, rewrite half.
	f.Add([]byte{0, 0, 0, 1, 7, 9, 17, 25, 33, 41, 49, 57, 0, 8, 0, 0, 6, 0, 0, 5, 9, 17, 25, 0, 7, 0, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) { runModel(t, data) })
}

// seqTable is n rows of (id, k = id*7 mod 1000 as kind, other = 0) in chunks
// of chunkSize.
func seqTable(tb testing.TB, kind value.Kind, n, chunkSize int) *storage.Table {
	tb.Helper()
	tbl := storage.NewTableWithChunkSize("t", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "k", Kind: kind},
		storage.Column{Name: "other", Kind: value.KindInt},
	), chunkSize)
	if err := tbl.InsertBatch(seqRows(kind, 0, n)); err != nil {
		tb.Fatal(err)
	}
	return tbl
}

func seqRows(kind value.Kind, from, n int) [][]value.Datum {
	rows := make([][]value.Datum, n)
	for i := range rows {
		id := int64(from + i)
		rows[i] = []value.Datum{value.NewInt(id), seqKey(kind, id), value.NewInt(0)}
	}
	return rows
}

func seqKey(kind value.Kind, id int64) value.Datum {
	switch k := id * 7 % 1000; kind {
	case value.KindInt:
		return value.NewInt(k)
	case value.KindFloat:
		return value.NewFloat(float64(k) / 2)
	default:
		return value.NewString(fmt.Sprintf("key-%03d", k))
	}
}

// TestCatchUpIsThePathTaken pins which way the shared image moves: a delta
// is merged in, DML on another column moves no entry and reads no chunk, and
// only a delta above three quarters of the table sorts everything again.
func TestCatchUpIsThePathTaken(t *testing.T) {
	for _, kind := range []value.Kind{value.KindInt, value.KindFloat, value.KindString} {
		tbl := seqTable(t, kind, 1000, 64)
		ix, err := New(tbl, "k")
		if err != nil {
			t.Fatal(err)
		}
		use := func(what string, wantFull bool, wantMoved int) {
			t.Helper()
			before := ix.Stats()
			if got, want := ix.RangeAt(ix.table.Snapshot(), value.Unbounded(), value.Unbounded()), naiveRange(tbl.Snapshot().ColumnValues(1), value.Unbounded(), value.Unbounded()); !slices.Equal(got, want) {
				t.Fatalf("%v after %s: index and scan disagree", kind, what)
			}
			after := ix.Stats()
			if after.Advances != before.Advances+1 {
				t.Fatalf("%v after %s: %d advances, want 1", kind, what, after.Advances-before.Advances)
			}
			if full := after.Full > before.Full; full != wantFull {
				t.Errorf("%v after %s: full sort = %v, want %v", kind, what, full, wantFull)
			}
			if !wantFull && after.LastMoved != wantMoved {
				t.Errorf("%v after %s: moved %d entries, want %d", kind, what, after.LastMoved, wantMoved)
			}
		}
		use("first use", true, 0)

		if err := tbl.Insert(seqRows(kind, 1000, 1)[0]); err != nil {
			t.Fatal(err)
		}
		use("a one-row insert", false, 1)

		if err := tbl.InsertBatch(seqRows(kind, 1001, 40)); err != nil {
			t.Fatal(err)
		}
		use("a 4% batch", false, 40)

		// Three statements between two uses: still one catch-up.
		for i := 0; i < 3; i++ {
			if err := tbl.Insert(seqRows(kind, 1041+i, 1)[0]); err != nil {
				t.Fatal(err)
			}
		}
		use("three inserts", false, 3)

		n, err := tbl.UpdateWhere(
			storage.MatchRows(func(row []value.Datum) bool { return row[0].Int()%3 == 0 }),
			[]storage.Assignment{{Ordinal: 2, Value: value.NewInt(1)}})
		if err != nil || n < 300 {
			t.Fatalf("updated %d rows, %v", n, err)
		}
		use("an update of another column", false, 0)
		if read := ix.Stats().LastRead; read != 0 {
			t.Errorf("%v: an update of another column in every chunk made the index read %d chunks, want none", kind, read)
		}

		// 20 rows from the middle: each leaves one entry and, unless it was
		// itself at the tail, brings the last row into its place.
		if n := tbl.DeleteWhere(storage.MatchRows(func(row []value.Datum) bool { id := row[0].Int(); return id >= 500 && id < 520 })); n != 20 {
			t.Fatalf("deleted %d rows", n)
		}
		use("a 2% delete", false, 60)

		// A key changed in place removes one entry and adds one: rewriting
		// 30 % of the rows is a delta of 60 %, still merged; 40 % is past
		// the limit.
		rewrite := func(under int64) (changed int) {
			key := seqKey(kind, under)
			tbl.Snapshot().Scan(func(_ int, row []value.Datum) bool {
				if row[0].Int()%10 < under && row[1] != key {
					changed++
				}
				return true
			})
			if _, err := tbl.UpdateWhere(
				storage.MatchRows(func(row []value.Datum) bool { return row[0].Int()%10 < under }),
				[]storage.Assignment{{Ordinal: 1, Value: key}}); err != nil {
				t.Fatal(err)
			}
			return changed
		}
		changed := rewrite(3)
		use("a 30% rewrite", false, 2*changed)
		rewrite(4)
		use("a 40% rewrite", true, 0)
	}
}

// TestConcurrentProbesUnderDML: sessions probe the snapshots they hold while
// another writes, so the shared image advances under some readers and others
// fall behind it; every probe must still describe the prober's own snapshot.
func TestConcurrentProbesUnderDML(t *testing.T) {
	tbl := seqTable(t, value.KindInt, 2000, 64)
	ix, err := New(tbl, "k")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	defer func() {
		close(done)
		readers.Wait()
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap := tbl.Snapshot()
				keys := snap.ColumnValues(1)
				for p := 0; p < 4; p++ { // an index-NL join: several probes of one snapshot
					lo := value.Bound{Value: value.NewInt(int64((r*97 + i*13 + p*7) % 1000)), Inclusive: true}
					hi := value.Bound{Value: value.NewInt(lo.Value.Int() + 5)}
					if got, want := ix.RangeAt(snap, lo, hi), naiveRange(keys, lo, hi); !slices.Equal(got, want) {
						t.Errorf("reader %d: RangeAt(v%d, %s, %s) = %v, naive scan %v", r, snap.Version(), boundString(lo), boundString(hi), got, want)
						return
					}
				}
			}
		}(r)
	}
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			if err := tbl.InsertBatch(seqRows(value.KindInt, 2000+i*5, 5)); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, err := tbl.UpdateWhere(
				storage.MatchRows(func(row []value.Datum) bool { return row[0].Int()%97 == int64(i%97) }),
				[]storage.Assignment{{Ordinal: 1, Value: value.NewInt(int64(i % 1000))}}); err != nil {
				t.Fatal(err)
			}
		case 2:
			tbl.DeleteWhere(storage.MatchRows(func(row []value.Datum) bool { return row[0].Int()%211 == int64(i%211) }))
		}
	}
}

// TestSetCatchUpBuildsNothing: the catch-up a write starts beside its
// statement only moves images a probe built. An index nobody has probed
// stays unbuilt, an aside image is never built or moved, a shared image
// already at the table's version is left as it is, and one behind it
// advances once — to rows every later probe then finds equal to a scan.
func TestSetCatchUpBuildsNothing(t *testing.T) {
	tbl := seqTable(t, value.KindInt, 5000, 512)
	set := NewSet()
	probed, err := set.Create(tbl, "k")
	if err != nil {
		t.Fatal(err)
	}
	unprobed, err := set.Create(tbl, "id")
	if err != nil {
		t.Fatal(err)
	}
	old := tbl.Snapshot()
	probed.LookupAt(old, seqKey(value.KindInt, 7))

	set.CatchUp(tbl) // nothing written: the image is at the table's version
	if got := probed.Stats(); got.Advances != 1 || got.Aside != 0 {
		t.Fatalf("a catch-up with nothing written moved the image: %+v", got)
	}
	if err := tbl.InsertBatch(seqRows(value.KindInt, 5000, 300)); err != nil {
		t.Fatal(err)
	}
	set.CatchUp(tbl)
	if got := probed.Stats(); got.Advances != 2 || got.Full != 1 || got.Aside != 0 {
		t.Fatalf("after a write the catch-up ran %+v; want one advance, no sort, no aside image", got)
	}
	if got := unprobed.Stats(); got != (ImageStats{}) {
		t.Fatalf("the catch-up built an index nobody probed: %+v", got)
	}
	// A statement still on the old snapshot gets its aside image; the next
	// write's catch-up moves the shared image and leaves the aside alone.
	probed.LookupAt(old, seqKey(value.KindInt, 7))
	if _, err := tbl.UpdateWhere(storage.MatchRows(func(row []value.Datum) bool { return row[0].Int()%7 == 0 }),
		[]storage.Assignment{{Ordinal: 1, Value: value.NewInt(-1)}}); err != nil {
		t.Fatal(err)
	}
	set.CatchUp(tbl)
	if got := probed.Stats(); got.Advances != 3 || got.Aside != 1 {
		t.Fatalf("after a stale probe and a write: %+v; want 3 advances, 1 aside build (the probe's)", got)
	}
	now := tbl.Snapshot()
	for _, key := range []int64{-1, 7, 14, 5100} {
		var want []int
		now.Scan(func(pos int, row []value.Datum) bool {
			if row[1].Int() == key {
				want = append(want, pos)
			}
			return true
		})
		if got := probed.LookupAt(now, value.NewInt(key)); !slices.Equal(got, want) {
			t.Fatalf("Lookup(%d) after the catch-up = %v, a scan finds %v", key, got, want)
		}
	}
	if got := probed.Stats(); got.Advances != 3 {
		t.Fatalf("probes after the catch-up moved the image again: %+v", got)
	}
}
