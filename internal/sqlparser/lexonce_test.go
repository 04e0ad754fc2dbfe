package sqlparser_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparser"
)

// TestProbedSelectIsLexedOnce: a SELECT the plan cache probes is lexed once
// per execution — on a miss the parse reads the tokens the probe lexed, on
// a hit nothing parses — and a statement the cache does not probe (a write,
// or any statement on an engine without a cache) is lexed once by the
// streaming parse. A SELECT of more tokens than Lexed keeps is lexed once
// on a hit and twice on a miss.
func TestProbedSelectIsLexedOnce(t *testing.T) {
	for _, cacheSize := range []int{16, 0} {
		e := engine.New(engine.Config{PlanCacheSize: cacheSize, Parallelism: 1})
		for _, sql := range []string{
			`CREATE TABLE t (id INT, name STRING)`,
			`INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')`,
			`CREATE INDEX ix_t_id ON t (id)`,
		} {
			if _, err := e.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		counts, stop := sqlparser.CountLexes()
		sel := `select Name from T where ID = 2;`
		for run := 1; run <= 3; run++ {
			res, err := e.Exec(sel)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.PlanCacheHit != (cacheSize > 0 && run > 1) {
				t.Fatalf("cache %d, run %d: %d rows, hit %v", cacheSize, run, len(res.Rows), res.PlanCacheHit)
			}
			if counts[sel] != run {
				t.Fatalf("cache %d, run %d: the SELECT was lexed %d times", cacheSize, run, counts[sel])
			}
		}
		long := `SELECT t.id AS a, t.name AS b, t.id AS c, t.name AS d, t.id AS e FROM t WHERE t.id >= 1 AND t.name <> 'q'`
		for run := 1; run <= 2; run++ {
			if _, err := e.Exec(long); err != nil {
				t.Fatal(err)
			}
		}
		write := `UPDATE t SET name = 'z' WHERE id = 3`
		if _, err := e.Exec(write); err != nil {
			t.Fatal(err)
		}
		stop()
		wantLong := 2 // cache off: once a run
		if cacheSize > 0 {
			wantLong = 3 // a miss lexes it twice, a hit once
		}
		if counts[write] != 1 || counts[long] != wantLong || len(counts) != 3 {
			t.Fatalf("cache %d: lexed %v, want the short SELECT 3 times, the long one %d and the UPDATE once", cacheSize, counts, wantLong)
		}
		e.Close()
	}
}
