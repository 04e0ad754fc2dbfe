package engine

import (
	"fmt"

	"testing"

	"repro/internal/core"
)

// cacheEngine is seedEngine with the plan cache on, JITS enabled with a
// small sample so compilation is cheap but the full pipeline runs.
func cacheEngine(t testing.TB) *Engine {
	t.Helper()
	cfg := Config{PlanCacheSize: 64}
	cfg.JITS = core.DefaultConfig()
	cfg.JITS.SampleSize = 200
	return seedEngine(t, cfg)
}

// TestPlanCacheEndToEnd: the second execution of an identical SELECT reuses
// the compiled plan — same rows, same plan text, zero compile cost — and
// the cache counters account for it.
func TestPlanCacheEndToEnd(t *testing.T) {
	e := cacheEngine(t)
	const q = `SELECT c.id, c.price FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`

	cold, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.PlanCacheHit {
		t.Fatal("first execution reported a cache hit")
	}
	warm, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.PlanCacheHit {
		t.Fatal("second execution missed the plan cache")
	}
	if warm.Metrics.CompileSeconds != 0 || warm.Metrics.CompileUnits != 0 {
		t.Fatalf("cached execution metered compile work: %+v", warm.Metrics)
	}
	if len(warm.Rows) != len(cold.Rows) {
		t.Fatalf("cached run returned %d rows, cold run %d", len(warm.Rows), len(cold.Rows))
	}
	for i := range cold.Rows {
		for j := range cold.Rows[i] {
			if !cold.Rows[i][j].Equal(warm.Rows[i][j]) {
				t.Fatalf("row %d col %d: %v vs %v", i, j, cold.Rows[i][j], warm.Rows[i][j])
			}
		}
	}
	if cold.Plan != warm.Plan {
		t.Fatalf("plans diverged:\ncold:\n%s\nwarm:\n%s", cold.Plan, warm.Plan)
	}
	st := e.PlanCache().Stats()
	if st.Hits != 1 || st.Misses < 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

// TestPlanCacheDMLInvalidation: DML bumps the archive epoch, so a plan
// compiled before the update is never reused after it — and the re-compiled
// plan sees the new rows. SHOW METRICS must expose the invalidation: its
// plan-cache series read the cache's own Stats.
func TestPlanCacheDMLInvalidation(t *testing.T) {
	e := cacheEngine(t)
	const q = `SELECT c.id FROM car c WHERE c.id = 777000`

	res, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("canary id already present: %d rows", len(res.Rows))
	}
	if res, err = e.Exec(q); err != nil {
		t.Fatal(err)
	}
	if !res.PlanCacheHit {
		t.Fatal("repeat before DML should hit")
	}

	epoch := e.ArchiveEpoch()
	if _, err = e.Exec(`INSERT INTO car VALUES (777000, 1, 'Toyota', 'Camry', 2001, 9000.0)`); err != nil {
		t.Fatal(err)
	}
	if e.ArchiveEpoch() != epoch+1 {
		t.Fatalf("INSERT did not bump the archive epoch: %d -> %d", epoch, e.ArchiveEpoch())
	}

	res, err = e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCacheHit {
		t.Fatal("stale plan reused after DML")
	}
	if len(res.Rows) != 1 {
		t.Fatalf("recompiled query missed the inserted row: %d rows", len(res.Rows))
	}
	if st := e.PlanCache().Stats(); st.Invalidations < 1 {
		t.Fatalf("no invalidation recorded: %+v", st)
	}

	// The acceptance surface: the plan-cache series in SHOW METRICS, each the
	// cache's own count (SHOW METRICS probed the cache before it read them).
	mres, err := e.Exec(`SHOW METRICS`)
	if err != nil {
		t.Fatal(err)
	}
	st := e.PlanCache().Stats()
	want := map[string]float64{
		"plan_cache_hits_total":          float64(st.Hits),
		"plan_cache_misses_total":        float64(st.Misses),
		"plan_cache_evictions_total":     float64(st.Evictions),
		"plan_cache_invalidations_total": float64(st.Invalidations),
		"plan_cache_entries":             float64(st.Entries),
	}
	for _, row := range mres.Rows {
		name := row[0].Str()
		if v, ok := want[name]; ok {
			if got, _ := row[2].AsFloat(); got != v {
				t.Errorf("%s = %v, want the cache's %v", name, got, v)
			}
			delete(want, name)
		}
	}
	for name := range want {
		t.Errorf("%s missing from SHOW METRICS", name)
	}
}

// TestPlanCacheNormalizationSharing: statements differing only in
// whitespace and keyword/identifier case share one cache entry; statements
// differing semantically (literal case included — strings are compared
// byte-wise) never do.
func TestPlanCacheNormalizationSharing(t *testing.T) {
	e := cacheEngine(t)
	if _, err := e.Exec(`SELECT id FROM car WHERE make = 'Toyota'`); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec("select   ID   from CAR\n\twhere MAKE = 'Toyota';")
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlanCacheHit {
		t.Fatal("case/whitespace variant did not share the cache entry")
	}
	// Same shape, different string literal case: semantically different,
	// must compile fresh and return different rows.
	res2, err := e.Exec(`SELECT id FROM car WHERE make = 'toyota'`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PlanCacheHit {
		t.Fatal("'toyota' collided with the 'Toyota' entry")
	}
	if len(res2.Rows) == len(res.Rows) && len(res.Rows) > 0 {
		t.Fatalf("literal case ignored: %d rows for both spellings", len(res.Rows))
	}
	// Different integer literal: distinct entry as well.
	if _, err := e.Exec(`SELECT id FROM car WHERE year > 1990`); err != nil {
		t.Fatal(err)
	}
	res3, err := e.Exec(`SELECT id FROM car WHERE year > 1995`)
	if err != nil {
		t.Fatal(err)
	}
	if res3.PlanCacheHit {
		t.Fatal("different literal hit the cache")
	}
}

// TestPlanCacheDisabled: PlanCacheSize 0 turns the cache off entirely.
func TestPlanCacheDisabled(t *testing.T) {
	e := seedEngine(t, Config{})
	const q = `SELECT id FROM car WHERE make = 'Toyota'`
	for i := 0; i < 3; i++ {
		res, err := e.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.PlanCacheHit {
			t.Fatalf("run %d: hit with the cache disabled", i)
		}
	}
	if n := e.PlanCache().Len(); n != 0 {
		t.Fatalf("disabled cache holds %d entries", n)
	}
	if st := e.PlanCache().Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("disabled cache counted traffic: %+v", st)
	}
}

// TestPlanCacheSemiJoinNotCached: IN-subquery statements fold the executed
// inner result into the outer plan — caching one would freeze data, not
// shape — so they must bypass the cache.
func TestPlanCacheSemiJoinNotCached(t *testing.T) {
	e := cacheEngine(t)
	const q = `SELECT c.id FROM car c WHERE c.ownerid IN (SELECT o.id FROM owner o WHERE o.city = 'Ottawa')`
	for i := 0; i < 2; i++ {
		res, err := e.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.PlanCacheHit {
			t.Fatalf("run %d: semi-join statement served from plan cache", i)
		}
	}
}

// TestPlanCacheExplainNotCached: EXPLAIN and EXPLAIN ANALYZE never populate
// or consume the cache — their Result shape is the plan, not rows.
func TestPlanCacheExplainNotCached(t *testing.T) {
	e := cacheEngine(t)
	const q = `SELECT id FROM car WHERE make = 'Toyota'`
	if _, err := e.Exec("EXPLAIN " + q); err != nil {
		t.Fatal(err)
	}
	if n := e.PlanCache().Len(); n != 0 {
		t.Fatalf("EXPLAIN populated the cache: %d entries", n)
	}
	if _, err := e.Exec(q); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCacheHit {
		t.Fatal("EXPLAIN consumed a cached plan")
	}
}

// TestPlanCacheRunstatsInvalidation: RUNSTATS rebuilds catalog statistics,
// so cached plans must not survive it.
func TestPlanCacheRunstatsInvalidation(t *testing.T) {
	e := cacheEngine(t)
	const q = `SELECT id FROM car WHERE make = 'Honda'`
	for i := 0; i < 2; i++ {
		if _, err := e.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunstatsAll(); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCacheHit {
		t.Fatal("plan survived RUNSTATS")
	}
}

// TestPlanCacheConcurrentSharedEntry: many goroutines executing the same
// cached statement concurrently (run under -race) must all see identical
// results — cached entries are executed shared, never copied.
func TestPlanCacheConcurrentSharedEntry(t *testing.T) {
	e := cacheEngine(t)
	const q = `SELECT c.id, c.price FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`
	base, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func() {
			res, err := e.Exec(q)
			if err != nil {
				errs <- err
				return
			}
			if len(res.Rows) != len(base.Rows) {
				errs <- fmt.Errorf("got %d rows, want %d", len(res.Rows), len(base.Rows))
				return
			}
			errs <- nil
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := e.PlanCache().Stats(); st.Hits < 10 {
		t.Fatalf("expected mostly hits across 16 concurrent repeats: %+v", st)
	}
}

// TestPlanCacheBatchInsertInvalidation pins the batch flavor of DML
// invalidation: a multi-row INSERT goes through storage.InsertBatch (one
// version bump for the whole batch) yet still advances the archive epoch by
// exactly one statement, invalidating cached plans, and the recompiled
// query sees every batched row.
func TestPlanCacheBatchInsertInvalidation(t *testing.T) {
	e := cacheEngine(t)
	const q = `SELECT c.id FROM car c WHERE c.id >= 888000 AND c.id <= 888004`

	res, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("canary range already populated: %d rows", len(res.Rows))
	}
	if res, err = e.Exec(q); err != nil {
		t.Fatal(err)
	}
	if !res.PlanCacheHit {
		t.Fatal("repeat before DML should hit")
	}

	epoch := e.ArchiveEpoch()
	ins, err := e.Exec(`INSERT INTO car VALUES
		(888000, 1, 'Toyota', 'Camry', 2001, 9000.0),
		(888001, 1, 'Toyota', 'Camry', 2002, 9100.0),
		(888002, 1, 'Honda', 'Civic', 2003, 9200.0),
		(888003, 1, 'Honda', 'Civic', 2004, 9300.0),
		(888004, 1, 'Mazda', 'Miata', 2005, 9400.0)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.RowsAffected != 5 {
		t.Fatalf("batch INSERT affected %d rows, want 5", ins.RowsAffected)
	}
	if e.ArchiveEpoch() != epoch+1 {
		t.Fatalf("batch INSERT moved the epoch %d -> %d, want exactly +1 (one statement, one bump)",
			epoch, e.ArchiveEpoch())
	}

	res, err = e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCacheHit {
		t.Fatal("stale plan reused after batch INSERT")
	}
	if len(res.Rows) != 5 {
		t.Fatalf("recompiled query saw %d of the 5 batched rows", len(res.Rows))
	}
}
