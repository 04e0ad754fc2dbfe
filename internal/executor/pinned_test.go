package executor

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// compileJoin plans a two-table SELECT and returns its block and scans, the
// first FROM table's scan first.
func compileJoin(t *testing.T, e *env, sql string) (*qgm.Block, []*optimizer.Scan) {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := qgm.Build(stmt.(*sqlparser.SelectStmt), e)
	if err != nil {
		t.Fatal(err)
	}
	blk := q.Blocks[0]
	plan, err := optimizer.Optimize(blk, &optimizer.Context{
		Est: &optimizer.Estimator{Cat: e.cat}, Indexes: e.indexes,
		Weights: costmodel.DefaultWeights(), Meter: new(costmodel.Meter),
	})
	if err != nil {
		t.Fatal(err)
	}
	scans := optimizer.CollectScans(plan)
	sort.Slice(scans, func(i, j int) bool { return scans[i].Slot < scans[j].Slot })
	if len(scans) != 2 {
		t.Fatalf("want a two-table join, got %d scans", len(scans))
	}
	return blk, scans
}

func renderRows(rows [][]value.Datum) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestRelationReadsItsPinnedImage: a relation is row positions in the
// snapshots it pinned, so what a join, a projection or a re-planned attempt
// reads through it is the image the scan saw — whatever DML lands between
// the scan and the read. The scan of car is checkpointed (a hair-trigger
// reopt unwinds the statement right after it), half of car is then deleted —
// swap-deletes move the surviving rows to other positions — and every price
// rewritten; the resumed statement, joining the checkpointed relation under
// each join method, must answer exactly as the statement that ran before the
// DML did. A relation that re-resolved its table by name would read moved,
// rewritten or missing rows.
func TestRelationReadsItsPinnedImage(t *testing.T) {
	const sql = `SELECT c.id, c.price, c.make, o.name FROM car c, owner o WHERE c.ownerid = o.id AND c.year > 1994`
	for _, method := range []optimizer.JoinMethod{optimizer.HashJoin, optimizer.MergeJoin, optimizer.IndexNLJoin, optimizer.NestedLoopJoin} {
		for _, dop := range []int{1, 4} {
			e := newEnv(t)
			blk, scans := compileJoin(t, e, sql)
			rt := func() *Runtime {
				return &Runtime{
					DB: e.db, Indexes: e.indexes, Weights: costmodel.DefaultWeights(),
					Meter: new(costmodel.Meter), Parallelism: dop, MorselSize: 16,
				}
			}
			join := func(left optimizer.Node) *optimizer.Join {
				return &optimizer.Join{Left: left, Right: scans[1], Method: method, Preds: blk.JoinPreds}
			}
			before, err := Execute(blk, join(scans[0]), rt())
			if err != nil {
				t.Fatal(err)
			}

			resumed := rt()
			resumed.Reopt = NewReoptState(0, 1) // any checkpoint triggers, once
			var trig *ReoptTriggered
			if _, err := Execute(blk, join(scans[0]), resumed); !errors.As(err, &trig) {
				t.Fatalf("%v dop %d: first attempt returned %v, want a reopt trigger after the scan of car", method, dop, err)
			}
			car, _ := e.db.Table("car")
			car.DeleteWhere(storage.MatchRows(func(row []value.Datum) bool { return row[0].Int()%2 == 0 }))
			if _, err := car.UpdateWhere(storage.MatchRows(func([]value.Datum) bool { return true }),
				[]storage.Assignment{{Ordinal: 4, Value: value.NewFloat(-1)}}); err != nil {
				t.Fatal(err)
			}
			leaves := resumed.Reopt.Leaves()
			if len(leaves) != 1 || leaves[0].SlotList[0] != 0 {
				t.Fatalf("%v dop %d: checkpointed leaves %+v, want the scan of car", method, dop, leaves)
			}
			after, err := Execute(blk, join(leaves[0]), resumed)
			if err != nil {
				t.Fatalf("%v dop %d: resumed attempt: %v", method, dop, err)
			}
			if got, want := renderRows(after.Rows), renderRows(before.Rows); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%v dop %d: the resumed statement read other rows than the scan pinned:\n got %d rows %v\nwant %d rows %v",
					method, dop, len(got), got[:min(3, len(got))], len(want), want[:min(3, len(want))])
			}
			fresh, err := Execute(blk, join(scans[0]), rt())
			if err != nil {
				t.Fatal(err)
			}
			if len(fresh.Rows) >= len(before.Rows) {
				t.Fatalf("%v dop %d: the DML did not change the answer (%d rows before, %d after) — the test proves nothing", method, dop, len(before.Rows), len(fresh.Rows))
			}
		}
	}
}

// TestScanProjectsOneImageUnderDML runs under -race (make race): a writer
// keeps rewriting two columns of every priced car row in one statement
// (statement n sets year 3000 + n and price −100 n, two vectors copied on
// write one after the other) and deleting and re-inserting rows, while
// readers scan, join and project. The projection gathers year and price one after the other,
// long after the scan; if either read the live table instead of the pinned
// snapshot, some row would show columns from two different versions (or the
// race detector would see the writer under the reader).
func TestScanProjectsOneImageUnderDML(t *testing.T) {
	e := newEnv(t)
	car, _ := e.db.Table("car")
	blk, scans := compileJoin(t, e, `SELECT c.id, c.year, c.price, o.id AS oid FROM car c, owner o WHERE c.ownerid = o.id`)
	base := map[int64][2]float64{} // id → year and price before the writer's first statement
	snap := car.Snapshot()
	for i := 0; i < snap.NumRows(); i++ {
		if p := snap.Datum(i, 4); !p.IsNull() {
			base[snap.Datum(i, 0).Int()] = [2]float64{float64(snap.Datum(i, 3).Int()), p.Float()}
		}
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for n := int64(1); ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := car.UpdateWhere(storage.MatchRows(func(row []value.Datum) bool { return !row[4].IsNull() }), []storage.Assignment{
				{Ordinal: 3, Value: value.NewInt(3000 + n)},
				{Ordinal: 4, Value: value.NewFloat(float64(-100 * n))},
			}); err != nil {
				t.Error(err)
				return
			}
			if n%3 == 0 { // move rows around: delete one, append it back
				var moved []value.Datum
				car.DeleteWhere(storage.MatchRows(func(row []value.Datum) bool {
					if moved == nil && row[0].Int()%7 == n%7 {
						moved = append([]value.Datum(nil), row...)
						return true
					}
					return false
				}))
				if moved != nil {
					if err := car.Insert(moved); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}
	}()

	for round := 0; round < 60; round++ {
		for _, method := range []optimizer.JoinMethod{optimizer.HashJoin, optimizer.IndexNLJoin} {
			res, err := Execute(blk, &optimizer.Join{Left: scans[0], Right: scans[1], Method: method, Preds: blk.JoinPreds}, &Runtime{
				DB: e.db, Indexes: e.indexes, Weights: costmodel.DefaultWeights(),
				Meter: new(costmodel.Meter), Parallelism: 1 + round%4, MorselSize: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			version := int64(-1)
			for _, row := range res.Rows {
				if row[2].IsNull() {
					continue
				}
				// The version each column shows: n once statement n has written
				// it, 0 while it still reads as loaded (years below 3000, prices
				// above 0).
				was := base[row[0].Int()]
				dy, dp := row[1].Int()-3000, int64(-row[2].Float())/100
				if row[1].Int() == int64(was[0]) {
					dy = 0
				}
				if row[2].Float() == was[1] {
					dp = 0
				}
				if dy != dp {
					t.Fatalf("round %d %v: car %d shows year of version %d beside price of version %d", round, method, row[0].Int(), dy, dp)
				}
				if version < 0 {
					version = dy
				}
				if dy != version {
					t.Fatalf("round %d %v: one scan shows versions %d and %d", round, method, version, dy)
				}
			}
		}
	}
	close(stop)
	writer.Wait()
}
