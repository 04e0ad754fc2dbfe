package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/feedback"
	"repro/internal/storage"
	"repro/internal/value"
)

// twoTableDB builds car ⋈ owner with local predicates on both sides, so one
// Prepare wants to collect on two tables and the budget checks have a
// boundary to trip between them.
func twoTableDB(t testing.TB) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	car, err := db.CreateTable("car", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "ownerid", Kind: value.KindInt},
		storage.Column{Name: "make", Kind: value.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	owner, err := db.CreateTable("owner", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "city", Kind: value.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	makes := []string{"Toyota", "Honda", "BMW"}
	cities := []string{"Ottawa", "Toronto"}
	var carRows, ownerRows [][]value.Datum
	for i := 0; i < 1000; i++ {
		carRows = append(carRows, []value.Datum{
			value.NewInt(int64(i)), value.NewInt(int64(i % 500)), value.NewString(makes[i%3]),
		})
	}
	for i := 0; i < 500; i++ {
		ownerRows = append(ownerRows, []value.Datum{
			value.NewInt(int64(i)), value.NewString(cities[i%2]),
		})
	}
	if err := car.InsertBatch(carRows); err != nil {
		t.Fatal(err)
	}
	if err := owner.InsertBatch(ownerRows); err != nil {
		t.Fatal(err)
	}
	return db
}

const twoTableSQL = `SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND c.make = 'Toyota' AND o.city = 'Ottawa'`

func forcedJITS(cfg Config) *JITS {
	cfg.Enabled = true
	cfg.ForceCollect = true
	if cfg.SampleSize == 0 {
		cfg.SampleSize = 200
	}
	return New(cfg, feedback.NewHistory(), catalog.New())
}

func prepare(t *testing.T, ctx context.Context, j *JITS, db *storage.Database) (*QueryStats, *PrepareReport) {
	t.Helper()
	q := buildQuery(t, db, twoTableSQL)
	var m costmodel.Meter
	qs, rep, err := j.Prepare(ctx, q, db, 1, &m, costmodel.DefaultWeights())
	if err != nil {
		t.Fatalf("Prepare must degrade, not fail: %v", err)
	}
	return qs, rep
}

func degradedReasons(rep *PrepareReport) map[string]string {
	out := make(map[string]string)
	for _, tr := range rep.Tables {
		if tr.Degraded {
			out[tr.Table] = tr.DegradeReason
		}
	}
	return out
}

func TestPrepareRowBudgetDegradesLaterTables(t *testing.T) {
	db := twoTableDB(t)
	j := forcedJITS(Config{SampleSize: 200, SampleBudgetRows: 200})
	_, rep := prepare(t, context.Background(), j, db)
	if rep.CollectedTables() != 1 {
		t.Fatalf("collected = %d, want the first table only (report %+v)", rep.CollectedTables(), rep)
	}
	if !rep.Degraded || rep.DegradedTables() != 1 {
		t.Fatalf("report = %+v, want exactly one fallback table", rep)
	}
	reasons := degradedReasons(rep)
	if len(reasons) != 1 {
		t.Fatalf("degraded tables = %v", reasons)
	}
	for _, reason := range reasons {
		if !strings.Contains(reason, "budget") {
			t.Errorf("reason = %q, want a budget reason", reason)
		}
	}
	if c := j.DegradationCounts(); c.BudgetExhausted != 1 || c.FallbackTables != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestPrepareRowBudgetTruncatesSample(t *testing.T) {
	db := twoTableDB(t)
	// Budget of 250 rows: the first table gets the full 200, the second
	// gets the truncated remainder of 50 — partial statistics beat none.
	j := forcedJITS(Config{SampleSize: 200, SampleBudgetRows: 250})
	_, rep := prepare(t, context.Background(), j, db)
	if rep.Degraded || rep.CollectedTables() != 2 {
		t.Fatalf("report = %+v, want both tables collected", rep)
	}
	if rep.Tables[1].SampleRows != 50 {
		t.Errorf("second sample = %d rows, want the 50 left in budget", rep.Tables[1].SampleRows)
	}
}

func TestPrepareUnitsBudgetDegradesLaterTables(t *testing.T) {
	db := twoTableDB(t)
	j := forcedJITS(Config{SampleBudgetUnits: 1e-9})
	_, rep := prepare(t, context.Background(), j, db)
	// The first table always runs (nothing is spent yet); the second trips
	// the cost cap.
	if rep.CollectedTables() != 1 || rep.DegradedTables() != 1 {
		t.Fatalf("report = %+v", rep)
	}
	for _, reason := range degradedReasons(rep) {
		if !strings.Contains(reason, "cost budget") {
			t.Errorf("reason = %q", reason)
		}
	}
	if c := j.DegradationCounts(); c.BudgetExhausted != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestPrepareSamplingFaultDegrades(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Arm(faultinject.SamplingRows, faultinject.Spec{Every: 1}); err != nil {
		t.Fatal(err)
	}
	db := twoTableDB(t)
	j := forcedJITS(Config{})
	qs, rep := prepare(t, context.Background(), j, db)
	if rep.CollectedTables() != 0 || rep.DegradedTables() != 2 {
		t.Fatalf("report = %+v, want both tables degraded", rep)
	}
	if qs.FreshGroups() != 0 {
		t.Errorf("fresh groups = %d, want 0 (everything fell back)", qs.FreshGroups())
	}
	for _, reason := range degradedReasons(rep) {
		if !strings.Contains(reason, "sampling error") {
			t.Errorf("reason = %q", reason)
		}
	}
	if c := j.DegradationCounts(); c.SamplingErrors != 2 || c.FallbackTables != 2 {
		t.Errorf("counters = %+v", c)
	}
}

func TestPrepareCancelledContextDegrades(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db := twoTableDB(t)
	j := forcedJITS(Config{})
	_, rep := prepare(t, ctx, j, db)
	if rep.CollectedTables() != 0 || rep.DegradedTables() != 2 {
		t.Fatalf("report = %+v, want both tables degraded", rep)
	}
	for _, reason := range degradedReasons(rep) {
		if !strings.Contains(reason, "cancel") {
			t.Errorf("reason = %q", reason)
		}
	}
	if c := j.DegradationCounts(); c.Cancellations != 2 {
		t.Errorf("counters = %+v", c)
	}
}

func TestPrepareWorkerPanicDegrades(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Arm(faultinject.WorkerPanic, faultinject.Spec{Every: 1}); err != nil {
		t.Fatal(err)
	}
	db := twoTableDB(t)
	j := forcedJITS(Config{Parallelism: 4})
	_, rep := prepare(t, context.Background(), j, db)
	if rep.CollectedTables() != 0 || rep.DegradedTables() != 2 {
		t.Fatalf("report = %+v, want both tables degraded", rep)
	}
	for _, reason := range degradedReasons(rep) {
		if !strings.Contains(reason, "panic") {
			t.Errorf("reason = %q", reason)
		}
	}
	if c := j.DegradationCounts(); c.Panics != 2 {
		t.Errorf("counters = %+v", c)
	}
}

// TestPrepareDegradedKeepsUDI: a table that fell back keeps its UDI
// counters, so the very next query reconsiders collecting on it.
func TestPrepareDegradedKeepsUDI(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	db := twoTableDB(t)
	car, _ := db.Table("car")
	if _, err := car.UpdateWhere(
		storage.MatchRows(func(r []value.Datum) bool { return r[0].Int() < 50 }),
		[]storage.Assignment{{Ordinal: 2, Value: value.NewString("Lada")}},
	); err != nil {
		t.Fatal(err)
	}
	udi := car.UDICounter().Total()
	if udi == 0 {
		t.Fatal("UDI should be dirty before prepare")
	}
	if err := faultinject.Arm(faultinject.SamplingRows, faultinject.Spec{Every: 1, Limit: 1}); err != nil {
		t.Fatal(err)
	}
	j := forcedJITS(Config{})
	_, rep := prepare(t, context.Background(), j, db)
	if rep.DegradedTables() == 0 {
		t.Fatal("expected at least one degraded table")
	}
	if rep.Tables[0].Degraded && car.UDICounter().Total() != udi {
		t.Errorf("UDI reset on a degraded table: %d, want %d", car.UDICounter().Total(), udi)
	}
	// The fault was limited to one fire: a retry collects and resets UDI.
	_, rep2 := prepare(t, context.Background(), j, db)
	if rep2.Tables[0].Degraded {
		t.Fatalf("second prepare still degraded: %+v", rep2)
	}
	if car.UDICounter().Total() != 0 {
		t.Error("UDI not reset after successful recollection")
	}
}
