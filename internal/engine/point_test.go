package engine_test

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// raceBuild is set by race_test.go under -race, where the detector's
// instrumentation adds allocations an allocation bound must not count.
var raceBuild bool

// pointEngine is an oltp_point engine: default JITS at s_max 0.5, serial,
// plan cache on, flight recorder and trace off.
func pointEngine(tb testing.TB, scale float64, cacheSize int) (*engine.Engine, int) {
	tb.Helper()
	cfg := core.DefaultConfig()
	cfg.SMax = 0.5
	e := engine.New(engine.Config{JITS: cfg, Parallelism: 1, PlanCacheSize: cacheSize})
	ds, err := workload.Load(e, workload.Spec{Scale: scale, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	return e, ds.Spec.Rows()["owner"]
}

func pointSQL(id int) string {
	return "SELECT name, city FROM owner WHERE id = " + strconv.Itoa(id)
}

// BenchmarkPointLookup prices one indexed point lookup through ExecUnboxed,
// the path the SQL service runs: hit repeats one statement (normalize, cache
// probe, execute, observe, reuse of the entry's plan text); miss walks more
// distinct keys than the cache holds, so every statement parses, builds its
// QGM, runs the sensitivity analysis, optimizes, renders its plan once and
// evicts an entry.
func BenchmarkPointLookup(b *testing.B) {
	ctx := context.Background()
	b.Run("hit", func(b *testing.B) {
		e, _ := pointEngine(b, 0.02, 256)
		sql := pointSQL(17)
		if _, err := e.ExecUnboxed(ctx, sql); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.ExecUnboxed(ctx, sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		e, owners := pointEngine(b, 0.02, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.ExecUnboxed(ctx, pointSQL(i%owners)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// warmHitAllocs is what one warm-cache point lookup allocates with the plan
// text kept in the cache entry and the text lexed once, on the statement's
// stack, its feedback filed under a statlist the store already holds, and
// the table's snapshot shared with every reader since the last write (18 on
// linux/amd64, go1.24). A new allocation on the hit path — a Sprintf, a
// rendered plan — fails here.
const warmHitAllocs = 18

// coldMissAllocs bounds what one point lookup that misses the plan cache
// allocates, its text included: BenchmarkPointLookup/miss's statement
// (79 on linux/amd64, go1.24, with the parse reading the probe's tokens, the
// index answering its own predicate, Algorithm 3 reading its column group's
// StatHistory rows by one lookup and the table's snapshot shared between
// writes).
const coldMissAllocs = 79

// TestWarmPointLookupFormatsNothing holds the hit path to formatting nothing
// while nobody looks: with the flight recorder and the trace off, no
// allocation made under ExecUnboxed passes through package flightrec or fmt
// (read from the heap profile at a sampling rate of one), and the allocation
// count stays at warmHitAllocs.
func TestWarmPointLookupFormatsNothing(t *testing.T) {
	e, _ := pointEngine(t, 0.004, 256)
	if e.Recorder().Recording() {
		t.Fatal("flight recorder or trace on")
	}
	ctx := context.Background()
	sql := pointSQL(17)
	hit := func() {
		res, err := e.ExecUnboxed(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if !res.PlanCacheHit {
			t.Fatal("repeat missed the plan cache")
		}
	}
	if _, err := e.ExecUnboxed(ctx, sql); err != nil {
		t.Fatal(err)
	}
	hit()

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := heapProfile()
	for range 100 {
		hit()
	}
	for stack, n := range heapProfile() {
		if n == before[stack] {
			continue
		}
		var fns []string
		statement, formats := false, false
		frames := runtime.CallersFrames(stack[:])
		for {
			f, more := frames.Next()
			fns = append(fns, f.Function)
			statement = statement || strings.HasPrefix(f.Function, "repro/internal/engine.(*Engine).ExecUnboxed")
			formats = formats || strings.HasPrefix(f.Function, "repro/internal/flightrec.") || strings.HasPrefix(f.Function, "fmt.")
			if !more {
				break
			}
		}
		if statement && formats {
			t.Errorf("%d allocations formatting text on a warm hit:\n  %s", n-before[stack], strings.Join(fns, "\n  "))
		}
	}

	allocs := testing.AllocsPerRun(50, hit)
	t.Logf("warm hit: %.0f allocations", allocs)
	if !raceBuild && allocs > warmHitAllocs {
		t.Errorf("warm hit allocated %.0f times, bound %d", allocs, warmHitAllocs)
	}
}

// TestColdPointLookupAllocs holds the miss path — lex once, parse from the
// tokens, QGM, JITS sensitivity analysis, optimize, one render, an index
// probe with nothing left to re-check — to coldMissAllocs: every statement
// is a key the cache has not seen.
func TestColdPointLookupAllocs(t *testing.T) {
	e, owners := pointEngine(t, 0.004, 64)
	ctx := context.Background()
	i := 0
	miss := func() {
		i++
		res, err := e.ExecUnboxed(ctx, pointSQL(i%owners))
		if err != nil {
			t.Fatal(err)
		}
		if res.PlanCacheHit {
			t.Fatal("a new key hit the plan cache")
		}
	}
	for range 100 { // the engine's buffers reach their size
		miss()
	}
	allocs := testing.AllocsPerRun(100, miss)
	t.Logf("cold miss: %.1f allocations", allocs)
	if !raceBuild && allocs > coldMissAllocs {
		t.Errorf("cold miss allocated %.1f times, bound %d", allocs, coldMissAllocs)
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
