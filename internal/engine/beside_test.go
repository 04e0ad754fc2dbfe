package engine_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qgm"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestWriteCatchUpBesideProbes: a write that changes rows starts a catch-up
// of its table's built indexes on a goroutine of its own, and a probe that
// gets to an index first catches it up itself. Random INSERTs, UPDATEs and
// DELETEs interleave with probes that race the catch-up — SELECTs through
// the engine and lookups on the current snapshot — and with lookups on
// snapshots held from before earlier writes. Every probe must equal a scan of
// its own snapshot. The index on s is never probed and must stay unbuilt,
// and a write the engine is left to catch up alone must advance the probed
// index exactly once.
func TestWriteCatchUpBesideProbes(t *testing.T) {
	e := engine.New(engine.Config{StorageChunkSize: 128, Parallelism: 1})
	for _, sql := range []string{
		`CREATE TABLE t (id INT, k INT, s STRING)`,
		`CREATE INDEX ix_t_k ON t (k)`,
		`CREATE INDEX ix_t_s ON t (s)`,
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	nextID := 0
	insert := func(n int) string {
		var sb strings.Builder
		sb.WriteString("INSERT INTO t VALUES ")
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, 's%d')", nextID, rng.Intn(50), nextID%13)
			nextID++
		}
		return sb.String()
	}
	if _, err := e.Exec(insert(1500)); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.DB().Table("t")
	probed, _ := e.Indexes().Find("t", "k")
	unprobed, _ := e.Indexes().Find("t", "s")

	scan := func(snap *storage.Snapshot, key int64) []int {
		var out []int
		snap.Scan(func(pos int, row []value.Datum) bool {
			if !row[1].IsNull() && row[1].Int() == key {
				out = append(out, pos)
			}
			return true
		})
		return out
	}
	lookup := func(step int, snap *storage.Snapshot) {
		key := int64(rng.Intn(55))
		if got, want := probed.LookupAt(snap, value.NewInt(key)), scan(snap, key); !slices.Equal(got, want) {
			t.Fatalf("step %d: LookupAt(v%d, %d) = %v, a scan finds %v", step, snap.Version(), key, got, want)
		}
	}
	held := []*storage.Snapshot{tbl.Snapshot()}
	lookup(-1, held[0]) // the first probe builds the index
	alone := 0
	for step := 0; step < 120; step++ {
		var dml string
		switch rng.Intn(3) {
		case 0:
			dml = insert(1 + rng.Intn(200))
		case 1:
			dml = fmt.Sprintf(`UPDATE t SET k = %d WHERE k = %d`, rng.Intn(55), rng.Intn(50))
		default:
			dml = fmt.Sprintf(`DELETE FROM t WHERE k = %d`, rng.Intn(50))
		}
		probe := rng.Intn(4)
		if probe == 3 {
			e.WaitMaintenance() // the index is at the table's version
		}
		before := probed.Rebuilds()
		res, err := e.Exec(dml)
		if err != nil {
			t.Fatalf("%s: %v", dml, err)
		}
		switch probe {
		case 0: // a SELECT through the engine, racing the catch-up
			key := rng.Intn(55)
			sel, err := e.Exec(fmt.Sprintf(`SELECT id FROM t WHERE k = %d`, key))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sel.Len(), len(scan(tbl.Snapshot(), int64(key))); got != want {
				t.Fatalf("step %d: SELECT k = %d returned %d rows, a scan finds %d", step, key, got, want)
			}
		case 1: // a lookup on the current snapshot, racing the catch-up
			lookup(step, tbl.Snapshot())
		case 2: // a statement still on rows from before an earlier write
			lookup(step, held[rng.Intn(len(held))])
		default: // nobody probes: the catch-up alone brings the index up
			e.WaitMaintenance()
			if after := probed.Rebuilds(); res.RowsAffected > 0 && after != before+1 {
				t.Fatalf("step %d: %s changed %d rows; the catch-up advanced the index %d times, want 1",
					step, dml, res.RowsAffected, after-before)
			}
			alone++
		}
		if rng.Intn(4) == 0 {
			held = append(held, tbl.Snapshot())
		}
	}
	e.WaitMaintenance()
	if n := unprobed.Rebuilds(); n != 0 {
		t.Fatalf("the catch-up built the index nobody probed %d times", n)
	}
	if alone == 0 {
		t.Fatal("no write was left to the catch-up alone")
	}
	t.Logf("%d writes caught up with no probe beside them, %d rebuilds, %d snapshots held", alone, probed.Rebuilds(), len(held))
}

// TestCloseWaitsForMaintenance: Close returns only once the maintenance the
// finished calls left running has ended — the index catch-ups of their
// writes and the histogram fits of their archive merges — and after it the
// fit totals are final. A collect_all engine (s_max 0: every SELECT samples
// and materializes) runs the paper stream, updates on; then merges grow one
// 3-D grid to some thousand cells, a probe builds every index of car, and a
// DELETE of a quarter of car starts their catch-up. The engine is closed at
// once, with that catch-up alone in flight, or, in the second round, once it
// has ended and one more merge has started a fit of that grid. Neither may
// still be running after Close.
func TestCloseWaitsForMaintenance(t *testing.T) {
	for round := 0; round < 2; round++ {
		cfg := core.DefaultConfig()
		cfg.SMax = 0
		cfg.SampleSize = 400
		e := engine.New(engine.Config{JITS: cfg, Parallelism: 1})
		d, err := workload.Load(e, workload.Spec{Scale: 0.004, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range d.Workload(10, int64(round), true) {
			if _, err := e.Exec(st.SQL); err != nil {
				t.Fatalf("%s: %v", st.SQL, err)
			}
		}
		dom := core.ColumnDomain{Lo: 0, Hi: 999, Unit: 1, Kind: value.KindInt}
		domains := map[string]core.ColumnDomain{"a": dom, "b": dom, "c": dom}
		rng := rand.New(rand.NewSource(int64(round)))
		merge := func() { // a box's share of a uniform grid, ±10 %: no conflict to drop
			var preds []qgm.Predicate
			sel := 0.9 + 0.2*rng.Float64()
			for _, col := range []string{"a", "b", "c"} {
				x := rng.Intn(999)
				preds = append(preds, qgm.Predicate{Column: col, Op: qgm.OpGT, Value: value.NewInt(int64(x))})
				sel *= float64(999-x) / 1000
			}
			e.JITS().Archive().Materialize("x", preds, sel, e.Now(), domains)
		}
		for i := 0; i < 30; i++ {
			merge()
		}
		for _, col := range e.Indexes().ForTable("car") { // every car index built
			ix, _ := e.Indexes().Find("car", col)
			ix.Lookup(value.NewInt(1))
		}
		e.JITS().Archive().Wait()
		if _, err := e.Exec(`DELETE FROM car WHERE year > 2000`); err != nil {
			t.Fatal(err)
		}
		if round == 1 { // the fit alone in flight; else the catch-up alone
			e.WaitMaintenance()
			merge()
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		// The work, not the goroutine's entry: a goroutine that has signalled
		// its owner may not have exited yet.
		for _, fn := range []string{"histogram.(*Histogram).refit", "index.(*Set).CatchUp"} {
			if strings.Contains(stacks, fn) {
				t.Fatalf("round %d: %s outlived Close:\n%s", round, fn, stacks)
			}
		}
		before := e.Scrape().Samples()
		e.JITS().Archive().Wait()
		if after := e.Scrape().Samples(); !slices.Equal(before, after) {
			t.Fatalf("round %d: the metrics moved after Close", round)
		}
	}
}

// TestOneCatchUpPerTable: over a stream of one-row INSERTs into an indexed
// table, at most one catch-up goroutine runs for the table at a time — a
// write that finds one running marks it dirty, and the running one goes
// round again. The stream comes in bursts; after each, the catch-ups alone
// have brought the index to the table's last write: a probe then advances
// nothing, and finds what a scan finds. The table is large enough that a
// pass takes longer than an INSERT, so writes land during passes.
func TestOneCatchUpPerTable(t *testing.T) {
	e := engine.New(engine.Config{StorageChunkSize: 128, Parallelism: 1})
	var rows strings.Builder
	for i := 0; i < 20000; i++ {
		if i > 0 {
			rows.WriteString(", ")
		}
		fmt.Fprintf(&rows, "(%d, %d)", -i, i%50)
	}
	for _, sql := range []string{
		`CREATE TABLE t (id INT, k INT)`,
		`CREATE INDEX ix_t_k ON t (k)`,
		`INSERT INTO t VALUES ` + rows.String(),
		`SELECT id FROM t WHERE k = 0`, // builds the index
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := e.DB().Table("t")
	ix, _ := e.Indexes().Find("t", "k")
	lookup := func(key int64) {
		snap := tbl.Snapshot()
		var want []int
		snap.Scan(func(pos int, row []value.Datum) bool {
			if row[1].Int() == key {
				want = append(want, pos)
			}
			return true
		})
		before := ix.Rebuilds()
		if got := ix.LookupAt(snap, value.NewInt(key)); !slices.Equal(got, want) {
			t.Fatalf("LookupAt(%d) = %v, a scan finds %v", key, got, want)
		}
		if after := ix.Rebuilds(); after != before {
			t.Fatalf("the probe advanced the index %d times: the catch-ups stopped short of the last write", after-before)
		}
	}
	peak := 0
	for i := 1; i <= 1000; i++ {
		if _, err := e.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i%50)); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, e.CatchUpsRunning())
		if i%50 == 0 {
			e.WaitMaintenance()
			if n := e.CatchUpsRunning(); n != 0 {
				t.Fatalf("%d catch-up goroutines left after the wait", n)
			}
			lookup(int64(i % 50))
		}
	}
	t.Logf("peak catch-up goroutines over 1000 INSERTs: %d", peak)
	if peak > 1 {
		t.Fatalf("%d catch-up goroutines ran at once for one table, want at most 1", peak)
	}
	for key := int64(0); key < 50; key++ {
		lookup(key)
	}
}

// TestCloseRacesStatements: Close in the middle of running writers and
// readers. Each round starts two writers (UPDATEs and DELETEs that move
// indexed rows, INSERTs that put rows back) and two readers (index probes,
// and two-column range SELECTs that, at s_max 0, sample and merge into the
// archive) on a fresh engine, and closes it at a random moment. Every
// statement returns or fails with ErrClosed; once they all have, no index
// catch-up and no histogram fit may be running, nor start: a statement that
// finished its write or merge after Close returned must have left the
// catch-up to the next probe and run its fit itself. Under -race, an owner
// that counted a goroutine after Close had begun its wait also fails as a
// data race on the owner's wait group.
func TestCloseRacesStatements(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < rounds; round++ {
		cfg := core.DefaultConfig()
		cfg.SMax = 0
		cfg.SampleSize = 100
		e := engine.New(engine.Config{JITS: cfg, Parallelism: 1, StorageChunkSize: 64})
		var rows strings.Builder
		for i := 0; i < 600; i++ {
			if i > 0 {
				rows.WriteString(", ")
			}
			fmt.Fprintf(&rows, "(%d, %d, %d)", i, i%97, i%13)
		}
		for _, sql := range []string{
			`CREATE TABLE t (id INT, a INT, b INT)`,
			`INSERT INTO t VALUES ` + rows.String(),
			`CREATE INDEX ix_t_id ON t (id)`,
			`CREATE INDEX ix_t_a ON t (a)`,
			`SELECT id FROM t WHERE id = 1`, // builds ix_t_id
			`SELECT id FROM t WHERE a = 1`,  // builds ix_t_a
		} {
			if _, err := e.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		seed := rng.Int63()
		statements := []func(r *rand.Rand) string{
			func(r *rand.Rand) string {
				return fmt.Sprintf(`UPDATE t SET a = %d WHERE id > %d`, r.Intn(97), r.Intn(600))
			},
			func(r *rand.Rand) string { return fmt.Sprintf(`DELETE FROM t WHERE b = %d`, r.Intn(13)) },
			func(r *rand.Rand) string {
				return fmt.Sprintf(`SELECT id FROM t WHERE a > %d AND b < %d`, r.Intn(97), r.Intn(13))
			},
			func(r *rand.Rand) string { return fmt.Sprintf(`SELECT b FROM t WHERE id = %d`, r.Intn(600)) },
		}
		errs := make(chan error, len(statements))
		for w, stmt := range statements {
			go func(r *rand.Rand) {
				for i := 0; ; i++ {
					sql := stmt(r)
					if w == 1 && i%2 == 1 {
						sql = fmt.Sprintf(`INSERT INTO t VALUES (%d, %d, %d)`, 600+i, r.Intn(97), r.Intn(13))
					}
					if _, err := e.Exec(sql); err != nil {
						if errors.Is(err, engine.ErrClosed) {
							err = nil
						}
						errs <- err
						return
					}
				}
			}(rand.New(rand.NewSource(seed + int64(w))))
		}
		time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		for range statements {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		before := e.Scrape().Samples()
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, fn := range []string{"histogram.(*Histogram).refit", "index.(*Set).CatchUp"} {
			if strings.Contains(stacks, fn) {
				t.Fatalf("round %d: %s ran after Close and every statement had returned:\n%s", round, fn, stacks)
			}
		}
		e.JITS().Archive().Wait()
		e.WaitMaintenance()
		if after := e.Scrape().Samples(); !slices.Equal(before, after) {
			t.Fatalf("round %d: the metrics moved after Close and every statement had returned", round)
		}
	}
}
