package core_test

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/qgm"
	"repro/internal/sampling"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/workload"
)

// raceBuild is set by race_test.go under -race, where the detector's
// instrumentation adds allocations an allocation bound must not count.
var raceBuild bool

// collectAllEngine is a collect_all engine: JITS at s_max 0, so every
// statement samples every table it filters, serial, archive on.
func collectAllEngine(tb testing.TB, scale float64) *engine.Engine {
	tb.Helper()
	cfg := core.DefaultConfig()
	cfg.SMax = 0
	e := engine.New(engine.Config{JITS: cfg, Parallelism: 1})
	if _, err := workload.Load(e, workload.Spec{Scale: scale, Seed: 42}); err != nil {
		tb.Fatal(err)
	}
	return e
}

func buildQuery(tb testing.TB, e *engine.Engine, sql string) *qgm.Query {
	tb.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		tb.Fatal(err)
	}
	q, err := qgm.Build(stmt.(*sqlparser.SelectStmt), e)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// preparer returns a function that runs JITS's compile-time pass over q at
// the next logical time, as the engine does for a statement, and reports how
// many tables it sampled.
func preparer(tb testing.TB, e *engine.Engine, q *qgm.Query) func() int {
	ctx, w, j := context.Background(), costmodel.DefaultWeights(), e.JITS()
	ts := int64(1 << 20)
	return func() int {
		ts++
		var m costmodel.Meter
		_, rep, err := j.PrepareBudgeted(ctx, q, e.DB(), ts, &m, w, nil)
		if err != nil {
			tb.Fatal(err)
		}
		sampled := 0
		for _, tr := range rep.Tables {
			if tr.Degraded() {
				tb.Fatalf("%s degraded: %s", tr.Table, tr.DegradeReason)
			}
			if tr.Collected {
				sampled++
			}
		}
		return sampled
	}
}

// warmCollectAllocs is what one warm re-prepare of the paper query at s_max 0
// allocates — car and owner sampled, their groups evaluated and merged into
// the archive (measured on linux/amd64, go1.24). The sample, its positions, the evaluation's bitmaps
// and the fit's cell lists are the sampler's and the histograms' own by then:
// an allocation that comes back per table fails here.
const warmCollectAllocs = 180

// TestWarmCollectionMakesNoSampleGarbage: once JITS has sampled the paper
// query's tables, sampling them again draws, gathers and evaluates in the
// memory the first pass left behind. No allocation made under PrepareBudgeted
// passes through the sampler's draw, the gather or a detached chunk's
// vectors (read from the heap profile at a sampling rate of one), and the
// allocation count stays under warmCollectAllocs.
func TestWarmCollectionMakesNoSampleGarbage(t *testing.T) {
	e := collectAllEngine(t, 0.004)
	prepare := preparer(t, e, buildQuery(t, e, workload.PaperQuery()))
	for range 60 { // until the archive's grids hold their last constraint
		if n := prepare(); n != 2 {
			t.Fatalf("sampled %d tables, want the paper query's 2 (car, owner)", n)
		}
	}

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := heapProfile()
	for range 20 {
		prepare()
	}
	sampleFuncs := []string{
		"repro/internal/storage.newColumnVec",
		"repro/internal/storage.NewDetachedChunk",
		"repro/internal/storage.ResetDetachedChunk",
		"repro/internal/storage.(*Snapshot).Gather",
		"repro/internal/sampling.(*Sampler).draw",
	}
	for stack, n := range heapProfile() {
		if n == before[stack] {
			continue
		}
		var fns []string
		prepared, sampled := false, false
		frames := runtime.CallersFrames(stack[:])
		for {
			f, more := frames.Next()
			fns = append(fns, f.Function)
			prepared = prepared || strings.HasPrefix(f.Function, "repro/internal/core.(*JITS).PrepareBudgeted")
			for _, fn := range sampleFuncs {
				sampled = sampled || strings.HasPrefix(f.Function, fn)
			}
			if !more {
				break
			}
		}
		if prepared && sampled {
			t.Errorf("%d sample allocations on a warm prepare:\n  %s", n-before[stack], strings.Join(fns, "\n  "))
		}
	}

	allocs := testing.AllocsPerRun(20, func() { prepare() })
	t.Logf("warm prepare: %.0f allocations", allocs)
	if !raceBuild && allocs > warmCollectAllocs {
		t.Errorf("warm prepare allocated %.0f times, bound %d", allocs, warmCollectAllocs)
	}
}

// heapProfile returns the allocation count per call stack as of a fresh
// garbage collection.
func heapProfile() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// BenchmarkCollectTable prices one sampled table's full collect pass on a warm
// engine at scale 0.01: a 2000-row draw of car's 14 308 rows, gathering the
// three referenced columns, the three predicates' seven candidate groups
// evaluated, the three columns' domains (the query joins on nothing, so no
// NDV is counted), and the groups Algorithm 4 picks merged into the archive —
// PrepareBudgeted at s_max 0 on a one-table query, so around it only the
// survey and the sensitivity analysis of that one table.
func BenchmarkCollectTable(b *testing.B) {
	e := collectAllEngine(b, 0.01)
	prepare := preparer(b, e, buildQuery(b, e, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry' AND year > 1995`))
	for range 60 {
		if n := prepare(); n != 1 {
			b.Fatalf("sampled %d tables, want car", n)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prepare()
	}
}

// everyColumnNDV is the counting loop the collect stage ran before it was
// scoped to the statement — every column of a full-width draw counted, its
// Duj1 estimate kept when positive — kept as the oracle a join column's
// archived NDV is held to.
func everyColumnNDV(s *sampling.Sampler, schema *storage.Schema, sample *storage.Chunk, card int) map[string]int64 {
	out := make(map[string]int64)
	for col := 0; col < schema.NumColumns(); col++ {
		if ndv := s.CountColumn(sample.Col(col)).EstimateNDV(card); ndv > 0 {
			out[schema.Column(col).Name] = ndv
		}
	}
	return out
}

// TestCollectionReadsWhatTheOptimizerReads replays the paper workload,
// updates included, at s_max 0 and seed 1, so every statement samples every
// table it filters, then a subquery whose block joins and a self join. For
// each sampled table: the draw gathers exactly the columns a local predicate
// of an instance of the table references and those an equi-join of any
// block compares on one, worked out here from the query; only a column some
// statement has joined on has an archived NDV; and each column the statement
// joins on holds the NDV the old every-column loop counts over a full-width
// twin of the same draw (a second sampler of the same seed, drawing the same
// tables in the same order).
func TestCollectionReadsWhatTheOptimizerReads(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SMax = 0
	e := engine.New(engine.Config{JITS: cfg, Parallelism: 1})
	d, err := workload.Load(e, workload.Spec{Scale: 0.004, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ctx, w, j, db := context.Background(), costmodel.DefaultWeights(), e.JITS(), e.DB()
	twin := sampling.New(cfg.Seed)
	joinedOn := map[string]bool{} // "table.column" a sampling statement joined on
	ts := int64(1 << 20)
	sampled, joins := 0, 0
	// The paper's stream has neither a subquery nor a self join: two
	// statements that do close it.
	stream := append(d.Workload(120, 1, true),
		workload.Statement{IsQuery: true, SQL: `SELECT c.id FROM car c WHERE c.make = 'Honda' AND c.ownerid IN (SELECT o.id FROM owner o, demographics d WHERE d.ownerid = o.id AND o.city = 'Boston' AND d.age > 30)`},
		workload.Statement{IsQuery: true, SQL: `SELECT COUNT(*) FROM car a, car b WHERE a.ownerid = b.id AND a.make = 'Toyota' AND b.year > 2000`})
	for _, st := range stream {
		if !st.IsQuery {
			if _, err := e.Exec(st.SQL); err != nil {
				t.Fatalf("%s: %v", st.SQL, err)
			}
			continue
		}
		q := buildQuery(t, e, st.SQL)
		groupCols, joinCols, gathered := map[string][]int{}, map[string][]int{}, map[string][]int{}
		add := func(sets map[string][]int, table string, ord int) {
			for _, set := range []map[string][]int{sets, gathered} {
				if !slices.Contains(set[table], ord) {
					set[table] = append(set[table], ord)
					slices.Sort(set[table])
				}
			}
		}
		for _, blk := range q.Blocks {
			for slot, ti := range blk.Tables {
				for _, p := range blk.LocalPreds[slot] {
					add(groupCols, ti.Table, p.Ordinal)
				}
			}
			for _, jp := range blk.JoinPreds {
				add(joinCols, blk.Tables[jp.LeftSlot].Table, jp.LeftOrd)
				add(joinCols, blk.Tables[jp.RightSlot].Table, jp.RightOrd)
			}
		}

		ts++
		scopes, err := j.SampleScopes(q, db, ts)
		if err != nil {
			t.Fatal(err)
		}
		var m costmodel.Meter
		_, rep, err := j.PrepareBudgeted(ctx, q, db, ts, &m, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range rep.Tables {
			if tr.Degraded() || !tr.Collected {
				t.Fatalf("%s: %s not sampled at s_max 0 (%s)", st.SQL, tr.Table, tr.DegradeReason)
			}
			sampled++
			scope := scopes[tr.Table]
			if !slices.Equal(scope.Groups, groupCols[tr.Table]) || !slices.Equal(scope.Joins, joinCols[tr.Table]) || !slices.Equal(scope.Gathered, gathered[tr.Table]) {
				t.Fatalf("%s: %s scope %+v, want groups %v joins %v gathered %v", st.SQL, tr.Table, scope, groupCols[tr.Table], joinCols[tr.Table], gathered[tr.Table])
			}

			tbl, _ := db.Table(tr.Table)
			var twinMeter costmodel.Meter
			sample, err := twin.SampleColumns(ctx, tbl, tr.SampleRows, &twinMeter, w, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			oracle := everyColumnNDV(twin, tbl.Schema(), sample, tbl.RowCount())
			for _, ord := range scope.Joins {
				col := tbl.Schema().Column(ord).Name
				joinedOn[tr.Table+"."+col] = true
				joins++
				if got, ok := j.Archive().ColumnNDV(tr.Table, col); !ok || got != oracle[col] {
					t.Fatalf("%s: %s.%s NDV %d (archived %v), the full-width count of the draw %d", st.SQL, tr.Table, col, got, ok, oracle[col])
				}
			}
		}
		for _, name := range db.TableNames() {
			tbl, _ := db.Table(name)
			for c := 0; c < tbl.Schema().NumColumns(); c++ {
				col := tbl.Schema().Column(c).Name
				if _, ok := j.Archive().ColumnNDV(name, col); ok != joinedOn[name+"."+col] {
					t.Fatalf("after %s: %s.%s has an archived NDV: %v, was joined on by a sampling statement: %v", st.SQL, name, col, ok, joinedOn[name+"."+col])
				}
			}
		}
	}
	t.Logf("%d sampled tables, %d join-column NDVs checked, %d columns joined on", sampled, joins, len(joinedOn))
	if sampled == 0 || joins == 0 {
		t.Fatal("the replay sampled nothing or joined on nothing")
	}
}
