package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/govern"
	"repro/internal/value"
	"repro/internal/workload"
)

// The chaos differential harness: replay the paper workload once without
// faults, then again on a fresh engine per fault class with deterministic
// faults armed. Every statement under faults must either return a clean
// error (no panic, engine still usable) or produce results equivalent to
// the fault-free run. Degraded JITS preparations change *plans* — sampling
// faults push the optimizer onto catalog statistics — so equivalence is
// plan-independent: row multisets (sorted fingerprints, floats rounded to 6
// significant digits since different join orders associate partial sums
// differently), and row *counts* only for LIMIT-without-ORDER-BY queries,
// where which rows survive the truncation legitimately depends on the plan.
//
// Data stays in lockstep across runs because the DML paths carry no fault
// points: an UPDATE/INSERT/DELETE that failed would fork the database state
// and invalidate every later comparison, so the harness treats a failed
// update as a test bug, not a tolerated fault.

const (
	chaosStmts = 120
	chaosSeed  = 99
)

func mkChaosEngine(t testing.TB, reopt engine.ReoptConfig) (*engine.Engine, *workload.Dataset) {
	t.Helper()
	cfg := engine.Config{Parallelism: 4, Reopt: reopt}
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

// fingerprintRows renders a result as an order-insensitive multiset
// fingerprint. Floats are rounded to 6 significant digits.
func fingerprintRows(res *engine.Result) string {
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var sb strings.Builder
		for j, d := range row {
			if j > 0 {
				sb.WriteByte('|')
			}
			if d.Kind() == value.KindFloat {
				fmt.Fprintf(&sb, "%.6g", d.Float())
			} else {
				sb.WriteString(d.String())
			}
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// limitWithoutOrderBy reports whether a query's row *identity* is
// plan-dependent: LIMIT with no ORDER BY truncates whatever order the plan
// happened to produce, so only the count is comparable across plans.
func limitWithoutOrderBy(sql string) bool {
	return strings.Contains(sql, " LIMIT ") && !strings.Contains(sql, " ORDER BY ")
}

type chaosOutcome struct {
	isQuery   bool
	countOnly bool
	failed    bool
	rows      int
	affected  int
	fp        string
}

// chaosBaseline caches the fault-free replay; every chaos class compares
// against the same baseline, and -count=2 reruns reuse it.
var chaosBaseline struct {
	once     sync.Once
	outcomes []chaosOutcome
	err      error
}

func baselineOutcomes(t *testing.T) []chaosOutcome {
	t.Helper()
	chaosBaseline.once.Do(func() {
		faultinject.Reset()
		e, d := mkChaosEngine(t, engine.ReoptConfig{})
		for _, st := range d.Workload(chaosStmts, chaosSeed, true) {
			res, err := e.Exec(st.SQL)
			o := chaosOutcome{isQuery: st.IsQuery, countOnly: limitWithoutOrderBy(st.SQL)}
			if err != nil {
				o.failed = true
			} else if st.IsQuery {
				o.rows = len(res.Rows)
				o.fp = fingerprintRows(res)
			} else {
				o.affected = res.RowsAffected
			}
			chaosBaseline.outcomes = append(chaosBaseline.outcomes, o)
		}
	})
	if chaosBaseline.err != nil {
		t.Fatal(chaosBaseline.err)
	}
	return chaosBaseline.outcomes
}

// runChaosClass replays the workload on a fresh engine with arm()'s faults
// active and checks the differential contract statement by statement. It
// returns the number of cleanly failed statements, the number of degraded
// (catalog-fallback) compilations, and the engine for class-specific
// assertions. The engine is probed for liveness after the storm.
func runChaosClass(t *testing.T, opts engine.ExecOptions, arm func()) (faultErrs, degradedStmts int, fired map[faultinject.Point]int64, e *engine.Engine) {
	t.Helper()
	base := baselineOutcomes(t)
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	e, d := mkChaosEngine(t, engine.ReoptConfig{})
	arm() // arm only after the data load so the dataset matches the baseline
	for i, st := range d.Workload(chaosStmts, chaosSeed, true) {
		res, err := e.ExecWithContext(context.Background(), st.SQL, opts)
		b := base[i]
		if err != nil {
			if !st.IsQuery {
				t.Fatalf("stmt %d %q: update failed under faults (%v) — database state would fork", i, st.SQL, err)
			}
			faultErrs++ // clean statement-level failure: tolerated
			continue
		}
		if res.Prepare != nil && res.Prepare.Degraded {
			degradedStmts++
			if len(res.Prepare.FallbackTables) == 0 {
				t.Fatalf("stmt %d %q: Degraded set but FallbackTables empty", i, st.SQL)
			}
		}
		if b.failed {
			continue // baseline failed, nothing to compare
		}
		if !st.IsQuery {
			if res.RowsAffected != b.affected {
				t.Fatalf("stmt %d %q: affected %d, fault-free run affected %d", i, st.SQL, res.RowsAffected, b.affected)
			}
			continue
		}
		if b.countOnly {
			if len(res.Rows) != b.rows {
				t.Fatalf("stmt %d %q: %d rows, fault-free run %d", i, st.SQL, len(res.Rows), b.rows)
			}
			continue
		}
		if got := fingerprintRows(res); got != b.fp {
			t.Fatalf("stmt %d %q: rows diverged from the fault-free run\ngot:\n%s\nwant:\n%s", i, st.SQL, got, b.fp)
		}
	}
	// Snapshot fire counts, then disarm: the engine must answer again.
	fired = make(map[faultinject.Point]int64)
	for _, p := range faultinject.Points() {
		fired[p] = faultinject.Fired(p)
	}
	faultinject.Reset()
	if _, err := e.Exec(`SELECT COUNT(*) FROM car`); err != nil {
		t.Fatalf("engine unusable after chaos run: %v", err)
	}
	return faultErrs, degradedStmts, fired, e
}

// TestChaosStorageScanFaults injects page-read errors on a fixed schedule:
// affected statements must fail cleanly, the rest must match the baseline.
func TestChaosStorageScanFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is slow")
	}
	errs, _, fired, _ := runChaosClass(t, engine.ExecOptions{}, func() {
		if err := faultinject.Arm(faultinject.StorageScan, faultinject.SeedSpec(chaosSeed, 7)); err != nil {
			t.Fatal(err)
		}
	})
	if fired[faultinject.StorageScan] == 0 {
		t.Fatal("storage.scan never fired — the probe schedule tested nothing")
	}
	if errs == 0 {
		t.Fatal("no statement failed although scan faults fired")
	}
}

// TestChaosSamplingDegradesNotFails is the paper's "QSS cannot be
// collected" contract: with only sampling-layer faults armed, every
// statement still compiles and runs (catalog fallback), results are
// identical to the fault-free run, and the degradation is visible in
// PrepareReport and the engine counters.
func TestChaosSamplingDegradesNotFails(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is slow")
	}
	errs, degraded, _, e := runChaosClass(t, engine.ExecOptions{}, func() {
		if err := faultinject.Arm(faultinject.SamplingRows, faultinject.SeedSpec(chaosSeed, 2)); err != nil {
			t.Fatal(err)
		}
	})
	if errs != 0 {
		t.Fatalf("%d statements failed — sampling faults must degrade, never abort", errs)
	}
	if degraded == 0 {
		t.Fatal("no statement reported Degraded although sampling faults were armed")
	}
	if d := e.Degradation(); d.SamplingErrors == 0 || d.FallbackTables == 0 {
		t.Fatalf("degradation counters not bumped: %+v", d)
	}
}

// TestChaosWorkerPanics injects panics into morsel workers (executor and
// sampling pools). Panics during execution must surface as clean errors;
// panics during sampling must degrade the preparation; either way the
// worker pools drain and the engine survives.
func TestChaosWorkerPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is slow")
	}
	_, _, fired, _ := runChaosClass(t, engine.ExecOptions{}, func() {
		if err := faultinject.Arm(faultinject.WorkerPanic, faultinject.Spec{Every: 40, Offset: 11}); err != nil {
			t.Fatal(err)
		}
	})
	if fired[faultinject.WorkerPanic] == 0 {
		t.Fatal("executor.worker.panic never fired")
	}
}

// TestChaosLatencyWithDeadline arms per-morsel latency and gives every
// statement a short deadline, so cancellation races real in-flight work:
// statements must either finish with baseline results or return the
// context error from a morsel/table boundary.
func TestChaosLatencyWithDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is slow")
	}
	errs, _, fired, _ := runChaosClass(t, engine.ExecOptions{Timeout: 4 * time.Millisecond}, func() {
		if err := faultinject.Arm(faultinject.MorselLatency, faultinject.Spec{Every: 1, Latency: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	})
	if fired[faultinject.MorselLatency] == 0 {
		t.Fatal("executor.morsel.latency never fired")
	}
	if errs == 0 {
		t.Fatal("no statement hit its deadline although every morsel slept")
	}
}

// TestChaosAllPointsArmed arms every registered fault point at once — the
// acceptance configuration: every statement either errors cleanly or
// matches the fault-free run.
func TestChaosAllPointsArmed(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is slow")
	}
	_, _, fired, _ := runChaosClass(t, engine.ExecOptions{}, func() {
		for p, spec := range map[faultinject.Point]faultinject.Spec{
			faultinject.StorageScan:   {Every: 9, Offset: 4},
			faultinject.SamplingRows:  {Every: 3, Offset: 1},
			faultinject.WorkerPanic:   {Every: 60, Offset: 7},
			faultinject.MorselLatency: {Every: 25, Latency: 500 * time.Microsecond},
			faultinject.ArchiveSave:   {Every: 1},
			faultinject.ArchiveLoad:   {Every: 1},
		} {
			if err := faultinject.Arm(p, spec); err != nil {
				t.Fatal(err)
			}
		}
	})
	for _, p := range []faultinject.Point{faultinject.StorageScan, faultinject.SamplingRows} {
		if fired[p] == 0 {
			t.Fatalf("%s never fired under the all-armed schedule", p)
		}
	}
}

// TestChaosGovernPressure arms the govern.pressure fault, which shrinks a
// statement's effective memory budget to its current usage mid-flight —
// modelling a neighbour stealing the remaining memory. The contract: every
// statement completes, degrades (counted, catalog fallback), or fails with
// the typed govern.ErrMemoryBudget — never a panic, never unbounded growth —
// and every reservation drains back to the global pool.
func TestChaosGovernPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is slow")
	}
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	cfg := engine.Config{Parallelism: 4}
	cfg.JITS.Enabled = true
	cfg.JITS.SMax = 0.5
	cfg.JITS.SampleSize = 800
	cfg.JITS.Seed = 7
	// Roomy enough that fault-free statements fit comfortably — failures in
	// the storm then come from the injected pressure, not the baseline budget.
	cfg.JITS.MemBudgetBytes = 32 << 20
	cfg.Governor.GlobalMemBudgetBytes = 256 << 20
	e := engine.New(cfg)
	d, err := workload.Load(e, workload.Spec{Scale: 0.004, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Arm after the load so table building is undisturbed; every 7th
	// reservation growth then hits the pressure fault.
	if err := faultinject.Arm(faultinject.GovernPressure, faultinject.Spec{Every: 7}); err != nil {
		t.Fatal(err)
	}

	var okStmts, degradedStmts, typedFails int
	for i, st := range d.Queries(60, chaosSeed) {
		res, err := e.Exec(st.SQL)
		switch {
		case err == nil:
			if res.Prepare != nil && res.Prepare.Degraded {
				degradedStmts++
			} else {
				okStmts++
			}
		case errors.Is(err, govern.ErrMemoryBudget):
			typedFails++
		default:
			t.Fatalf("stmt %d %q: untyped failure under govern.pressure: %v", i, st.SQL, err)
		}
	}
	if fired := faultinject.Fired(faultinject.GovernPressure); fired == 0 {
		t.Fatal("govern.pressure never fired — the schedule tested nothing")
	}
	if typedFails == 0 {
		t.Fatal("no statement failed typed although budgets were shrunk mid-flight")
	}
	if okStmts+degradedStmts == 0 {
		t.Fatal("no statement survived the pressure storm")
	}
	t.Logf("govern.pressure: %d ok, %d degraded, %d typed failures", okStmts, degradedStmts, typedFails)

	// The storm must leak nothing and leave the engine usable.
	if used := e.Governor().Snapshot().GlobalMemUsed; used != 0 {
		t.Fatalf("global pool holds %d bytes after the storm", used)
	}
	faultinject.Reset()
	if _, err := e.Exec(`SELECT COUNT(*) FROM car`); err != nil {
		t.Fatalf("engine unusable after govern.pressure storm: %v", err)
	}
}

// TestChaosArchiveCorruption covers the persistence fault points: a save
// corrupted after checksumming, and a load corrupted at rest, must both be
// caught by the CRC and rejected — and a failed load must leave the
// engine's current archive untouched.
func TestChaosArchiveCorruption(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	e, d := mkChaosEngine(t, engine.ReoptConfig{})
	for _, st := range d.Queries(8, 5) {
		if _, err := e.Exec(st.SQL); err != nil {
			t.Fatal(err)
		}
	}
	var clean bytes.Buffer
	if err := e.SaveStatistics(&clean); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadStatistics(bytes.NewReader(clean.Bytes())); err != nil {
		t.Fatalf("clean round trip failed: %v", err)
	}

	// Torn persist: the payload is corrupted after its checksum was taken.
	if err := faultinject.Arm(faultinject.ArchiveSave, faultinject.Spec{Every: 1}); err != nil {
		t.Fatal(err)
	}
	var torn bytes.Buffer
	if err := e.SaveStatistics(&torn); err != nil {
		t.Fatalf("save itself must succeed (corruption is silent): %v", err)
	}
	faultinject.Disarm(faultinject.ArchiveSave)
	err := e.LoadStatistics(bytes.NewReader(torn.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("loading a torn archive: err = %v, want checksum mismatch", err)
	}

	// Corruption at rest: a clean file, flipped during the read path.
	if err := faultinject.Arm(faultinject.ArchiveLoad, faultinject.Spec{Every: 1}); err != nil {
		t.Fatal(err)
	}
	err = e.LoadStatistics(bytes.NewReader(clean.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("loading with read-path corruption: err = %v, want checksum mismatch", err)
	}
	faultinject.Disarm(faultinject.ArchiveLoad)

	// The rejected loads must not have clobbered the working archive.
	if _, err := e.Exec(`SELECT COUNT(*) FROM car WHERE make = 'Toyota'`); err != nil {
		t.Fatalf("engine unusable after rejected loads: %v", err)
	}
	if err := e.LoadStatistics(bytes.NewReader(clean.Bytes())); err != nil {
		t.Fatalf("clean load after rejections failed: %v", err)
	}
}
