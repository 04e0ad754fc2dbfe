package core_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
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
			if tr.Degraded {
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
// engine at scale 0.01: a 2000-row draw of car's 14 308 rows, the three
// predicates' seven candidate groups evaluated, one counting pass per column
// (its NDV, and the domains of the three referenced columns), and the groups
// Algorithm 4 picks merged into the archive — PrepareBudgeted at s_max 0 on a
// one-table query, so around it only the survey and the sensitivity analysis
// of that one table.
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
