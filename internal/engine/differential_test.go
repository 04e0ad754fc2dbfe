package engine_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// The differential harness: the morsel-driven parallel operators promise
// bit-identical rows in identical order at any degree of parallelism (only
// float aggregates may differ in the last bits, from partial-sum
// association), and identical metered work. Two engines replay the same
// workload — one serial, one parallel — and every SELECT must agree.

// normalizePlan strips the Gather header a parallel plan carries so serial
// and parallel EXPLAIN output can be compared structurally.
func normalizePlan(plan string) string {
	lines := strings.Split(plan, "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "Gather(workers=") {
		return plan
	}
	var out []string
	for _, l := range lines[1:] {
		out = append(out, strings.TrimPrefix(l, "  "))
	}
	return strings.Join(out, "\n")
}

// diffResults compares two results row for row; float cells get a small
// relative tolerance. Returns "" when identical.
func diffResults(serial, parallel *engine.Result) string {
	if len(serial.Columns) != len(parallel.Columns) {
		return fmt.Sprintf("columns %v vs %v", serial.Columns, parallel.Columns)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		return fmt.Sprintf("%d rows vs %d rows", len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		for j := range serial.Rows[i] {
			sd, pd := serial.Rows[i][j], parallel.Rows[i][j]
			if sf, ok := sd.AsFloat(); ok {
				pf, ok2 := pd.AsFloat()
				if !ok2 {
					return fmt.Sprintf("row %d col %d: %v vs %v", i, j, sd, pd)
				}
				diff, scale := sf-pf, sf
				if diff < 0 {
					diff = -diff
				}
				if scale < 0 {
					scale = -scale
				}
				if scale < 1 {
					scale = 1
				}
				if diff > 1e-9*scale {
					return fmt.Sprintf("row %d col %d: %v vs %v", i, j, sd, pd)
				}
				continue
			}
			if !sd.Equal(pd) && !(sd.IsNull() && pd.IsNull()) {
				return fmt.Sprintf("row %d col %d: %v vs %v", i, j, sd, pd)
			}
		}
	}
	return ""
}

// TestDifferentialSerialVsParallel replays the paper workload — queries and
// update batches, JITS enabled — through a serial engine and a dop-4 engine
// on 64-row chunks and requires identical rows, plans and metered work on
// every query: neither the partition nor the chunk geometry may show.
func TestDifferentialSerialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("differential workload replay is slow")
	}
	mkEngine := func(dop int) (*engine.Engine, *workload.Dataset) {
		cfg := engine.Config{Parallelism: dop}
		if dop > 1 {
			// Tiny chunks force every morsel across chunk boundaries, where
			// selection vectors and fused aggregation could diverge from the
			// serial engine's default-size chunks.
			cfg.StorageChunkSize = 64
		}
		cfg.JITS.Enabled = true
		cfg.JITS.SMax = 0.5
		cfg.JITS.SampleSize = 800
		cfg.JITS.Seed = 7
		e := engine.New(cfg)
		d, err := workload.Load(e, workload.Spec{Scale: 0.004, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return e, d
	}
	serialE, d := mkEngine(1)
	parallelE, _ := mkEngine(4)

	stmts := d.Workload(220, 99, true)
	queries := 0
	for i, st := range stmts {
		sres, serr := serialE.Exec(st.SQL)
		pres, perr := parallelE.Exec(st.SQL)
		if (serr == nil) != (perr == nil) {
			t.Fatalf("stmt %d %q: serial err %v, parallel err %v", i, st.SQL, serr, perr)
		}
		if serr != nil {
			continue
		}
		if !st.IsQuery {
			if sres.RowsAffected != pres.RowsAffected {
				t.Fatalf("stmt %d %q: rows affected %d vs %d", i, st.SQL, sres.RowsAffected, pres.RowsAffected)
			}
			continue
		}
		queries++
		if diff := diffResults(sres, pres); diff != "" {
			t.Fatalf("query %d %q: %s", i, st.SQL, diff)
		}
		if sp, pp := normalizePlan(sres.Plan), normalizePlan(pres.Plan); sp != pp {
			t.Fatalf("query %d %q: plans diverged\nserial:\n%s\nparallel:\n%s", i, st.SQL, sp, pp)
		}
		// Metered work (and therefore the paper's simulated timings) must
		// not depend on the degree of parallelism.
		for _, u := range []struct {
			name string
			s, p float64
		}{
			{"compile", sres.Metrics.CompileUnits, pres.Metrics.CompileUnits},
			{"exec", sres.Metrics.ExecUnits, pres.Metrics.ExecUnits},
		} {
			diff := u.s - u.p
			if diff < 0 {
				diff = -diff
			}
			if diff > 1e-6*(1+u.s) {
				t.Fatalf("query %d %q: %s units %g vs %g", i, st.SQL, u.name, u.s, u.p)
			}
		}
	}
	if queries < 200 {
		t.Fatalf("only %d queries compared, want >= 200", queries)
	}
}

// fuzzEnv lazily builds the pairs of engines the fuzzer reuses across
// inputs, one per parallel degree: a serial engine on default-size chunks and
// one built at the degree on 64-row chunks. A pair sees the exact same
// statement stream, so its states stay in lockstep as long as the
// dop-invariance holds.
var fuzzEnv struct {
	mu    sync.Mutex
	pairs map[int]*fuzzPair
}

type fuzzPair struct {
	serial, parallel *engine.Engine
	data             *workload.Dataset
}

func fuzzEngines(t testing.TB, dop int) *fuzzPair {
	fuzzEnv.mu.Lock()
	defer fuzzEnv.mu.Unlock()
	if p := fuzzEnv.pairs[dop]; p != nil {
		return p
	}
	build := func(dop, chunkSize int) (*engine.Engine, *workload.Dataset) {
		e := engine.New(engine.Config{Parallelism: dop, StorageChunkSize: chunkSize})
		d, err := workload.Load(e, workload.Spec{Scale: 0.002, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunstatsAll(); err != nil {
			t.Fatal(err)
		}
		return e, d
	}
	p := new(fuzzPair)
	p.serial, p.data = build(1, 0)
	p.parallel, _ = build(dop, 64)
	if fuzzEnv.pairs == nil {
		fuzzEnv.pairs = make(map[int]*fuzzPair)
	}
	fuzzEnv.pairs[dop] = p
	return p
}

// FuzzParallelSerial generates workload queries from the fuzzed seed and
// cross-checks a serial engine on default-size chunks against an engine
// built at a fuzzed dop on 64-row chunks.
// Run with: go test -run TestDifferential -fuzz=FuzzParallelSerial ./internal/engine/
func FuzzParallelSerial(f *testing.F) {
	// Seed corpus: a spread of query seeds and dops, including the
	// degenerate dop=2 and the oversubscribed dop=8.
	for _, c := range [][2]uint64{
		{1, 2}, {2, 4}, {3, 8}, {42, 4}, {99, 3}, {1234, 5}, {77, 2}, {2026, 6},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, qseed, dop uint64) {
		n := int(dop%7) + 2 // clamp to [2, 8]
		p := fuzzEngines(t, n)
		for _, st := range p.data.Queries(3, int64(qseed)) {
			sres, serr := p.serial.ExecUnboxed(context.Background(), st.SQL)
			pres, perr := p.parallel.ExecUnboxed(context.Background(), st.SQL)
			if (serr == nil) != (perr == nil) {
				t.Fatalf("%q: serial err %v, parallel err %v", st.SQL, serr, perr)
			}
			if serr != nil {
				continue
			}
			sres.Rows, pres.Rows = sres.Out.Rows(), pres.Out.Rows()
			if diff := diffResults(sres, pres); diff != "" {
				t.Fatalf("%q at dop %d: %s", st.SQL, n, diff)
			}
		}
	})
}
