package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/feedback"
	"repro/internal/govern"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/storage"
	"repro/internal/value"
)

// twoTableDB builds car ⋈ owner with local predicates on both sides, so one
// Prepare wants to collect on two tables.
func twoTableDB(t testing.TB) *storage.Database {
	t.Helper()
	db := storage.NewDatabase(0)
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

func forcedJITS(cfg Config, dop int) *JITS {
	cfg.Enabled = true
	cfg.ForceCollect = true
	if cfg.SampleSize == 0 {
		cfg.SampleSize = 200
	}
	return New(cfg, dop, feedback.NewStore(), catalog.New())
}

func prepare(t *testing.T, ctx context.Context, j *JITS, db *storage.Database) (*QueryStats, *PrepareReport) {
	t.Helper()
	q := buildQuery(t, db, twoTableSQL)
	var m costmodel.Meter
	qs, rep, err := j.PrepareBudgeted(ctx, q, db, 1, &m, costmodel.DefaultWeights(), nil)
	if err != nil {
		t.Fatalf("Prepare must degrade, not fail: %v", err)
	}
	return qs, rep
}

func degradedReasons(rep *PrepareReport) map[string]string {
	out := make(map[string]string)
	for _, tr := range rep.Tables {
		if tr.Degraded() {
			out[tr.Table] = tr.DegradeReason
		}
	}
	return out
}

// TestReservationCoversGatheredColumns: a draw materializes only the columns
// the statement references, so the memory a collection reserves is sized by
// them, not by the table's width. car is the one table with a local
// predicate; its sample gathers make and ownerid, two of its three columns,
// and the reservation's peak is that sample at that width.
func TestReservationCoversGatheredColumns(t *testing.T) {
	db := twoTableDB(t)
	const size = 200
	j := forcedJITS(Config{SampleSize: size}, 0)
	res := govern.New().NewReservation()
	defer res.Release()
	q := buildQuery(t, db, `SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND c.make = 'Toyota'`)
	var m costmodel.Meter
	_, rep, err := j.PrepareBudgeted(context.Background(), q, db, 1, &m, costmodel.DefaultWeights(), res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded() || rep.CollectedTables() != 1 || rep.Tables[0].Table != "car" || rep.Tables[0].SampleRows != size {
		t.Fatalf("report = %+v, want car alone sampled at %d rows", rep, size)
	}
	car, _ := db.Table("car")
	rows := int64(sampling.EffectiveSampleRows(car.RowCount(), size))
	if want := rows * govern.EstimateRowBytes(2); res.Peak() != want {
		t.Errorf("reservation peak %d, want %d rows × the 2 gathered columns = %d (the schema's 3 would be %d)",
			res.Peak(), rows, want, rows*govern.EstimateRowBytes(3))
	}
	if res.Used() != 0 {
		t.Errorf("reservation still holds %d bytes", res.Used())
	}
}

func TestPrepareSamplingFaultDegrades(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Arm(faultinject.SamplingRows, faultinject.Spec{Every: 1}); err != nil {
		t.Fatal(err)
	}
	db := twoTableDB(t)
	j := forcedJITS(Config{}, 0)
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
	if c := j.DegradationCounts(); c.Of(costmodel.DegradeSamplingError) != 2 || c.Total != 2 {
		t.Errorf("counters = %+v", c)
	}
}

func TestPrepareCancelledContextDegrades(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db := twoTableDB(t)
	j := forcedJITS(Config{}, 0)
	_, rep := prepare(t, ctx, j, db)
	if rep.CollectedTables() != 0 || rep.DegradedTables() != 2 {
		t.Fatalf("report = %+v, want both tables degraded", rep)
	}
	for _, reason := range degradedReasons(rep) {
		if !strings.Contains(reason, "cancel") {
			t.Errorf("reason = %q", reason)
		}
	}
	if c := j.DegradationCounts(); c.Of(costmodel.DegradeCancelled) != 2 {
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
	j := forcedJITS(Config{}, 4)
	_, rep := prepare(t, context.Background(), j, db)
	if rep.CollectedTables() != 0 || rep.DegradedTables() != 2 {
		t.Fatalf("report = %+v, want both tables degraded", rep)
	}
	for _, reason := range degradedReasons(rep) {
		if !strings.Contains(reason, "panic") {
			t.Errorf("reason = %q", reason)
		}
	}
	if c := j.DegradationCounts(); c.Of(costmodel.DegradePanic) != 2 {
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
	j := forcedJITS(Config{}, 0)
	_, rep := prepare(t, context.Background(), j, db)
	if rep.DegradedTables() == 0 {
		t.Fatal("expected at least one degraded table")
	}
	if rep.Tables[0].Degraded() && car.UDICounter().Total() != udi {
		t.Errorf("UDI reset on a degraded table: %d, want %d", car.UDICounter().Total(), udi)
	}
	// The fault was limited to one fire: a retry collects and resets UDI.
	_, rep2 := prepare(t, context.Background(), j, db)
	if rep2.Tables[0].Degraded() {
		t.Fatalf("second prepare still degraded: %+v", rep2)
	}
	if car.UDICounter().Total() != 0 {
		t.Error("UDI not reset after successful recollection")
	}
}

// TestDegradationIsOneEvent drives each cause a table can degrade for and
// holds every place the event shows to the same count, cause and words: the
// always-on DegradationCounts, the jits_degradation_total{cause} series the
// coordinator's Scrape reads from them (labelled with the cause's name), the
// PrepareReport's fallback list and each TableReport's cause, reason and
// "table: reason" note (the line engine.capture files in the flight record and
// server.encodeResult sends as wire.Result.DegradedTables — the server's
// TestServedDegradationNotesAgree holds those two to it).
func TestDegradationIsOneEvent(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	arm := func(p faultinject.Point, spec faultinject.Spec) func(*testing.T) {
		return func(t *testing.T) {
			if err := faultinject.Arm(p, spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name   string
		cause  costmodel.DegradeCause
		dop    int
		ctx    context.Context
		setup  func(*testing.T)
		tables []string
		reason string
	}{
		{name: "cancelled", cause: costmodel.DegradeCancelled, ctx: cancelled,
			tables: []string{"car", "owner"}, reason: "cancelled: context canceled"},
		{name: "sampling error", cause: costmodel.DegradeSamplingError, setup: arm(faultinject.SamplingRows, faultinject.Spec{Every: 1}),
			tables: []string{"car", "owner"}, reason: "sampling error: "},
		{name: "one table", cause: costmodel.DegradeSamplingError, setup: arm(faultinject.SamplingRows, faultinject.Spec{Offset: 1, Limit: 1}),
			tables: []string{"owner"}, reason: "sampling error: "},
		{name: "worker panic", cause: costmodel.DegradePanic, dop: 4, setup: arm(faultinject.WorkerPanic, faultinject.Spec{Every: 1}),
			tables: []string{"car", "owner"}, reason: "recovered panic: "},
	}
	seen := make(map[costmodel.DegradeCause]bool)
	for _, tc := range cases {
		seen[tc.cause] = true
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Reset()
			t.Cleanup(faultinject.Reset)
			j := forcedJITS(Config{}, tc.dop)
			if tc.setup != nil {
				tc.setup(t)
			}
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			res := govern.New().NewReservation()
			defer res.Release()
			db := twoTableDB(t)
			var m costmodel.Meter
			_, rep, err := j.PrepareBudgeted(ctx, buildQuery(t, db, twoTableSQL), db, 1, &m, costmodel.DefaultWeights(), res)
			if err != nil {
				t.Fatalf("must degrade, not fail: %v", err)
			}

			n := int64(len(tc.tables))
			counts := j.DegradationCounts()
			if counts.Of(tc.cause) != n || counts.Total != n {
				t.Errorf("DegradationCounts = %+v, want %d under %s and in total", counts, n, tc.cause)
			}
			var set metrics.Set
			j.Scrape(&set)
			label, got := `cause="`+tc.cause.String()+`"`, -1.0
			for _, sm := range set.Samples() {
				if sm.Name == "jits_degradation_total" && sm.Label == label {
					got = sm.Value
				}
			}
			if got != float64(n) {
				t.Errorf("jits_degradation_total{%s} = %v, want %d", label, got, n)
			}
			if !rep.Degraded() || !slices.Equal(rep.FallbackTables(), tc.tables) {
				t.Errorf("report: degraded=%v fallback=%v, want %v", rep.Degraded(), rep.FallbackTables(), tc.tables)
			}
			for _, tr := range rep.Tables {
				if !slices.Contains(tc.tables, tr.Table) {
					if tr.Degraded() || tr.DegradeCause != costmodel.DegradeNone || !tr.Collected {
						t.Errorf("%s should have been collected: %+v", tr.Table, tr)
					}
					continue
				}
				if !tr.Degraded() || tr.Collected || tr.DegradeCause != tc.cause || !strings.HasPrefix(tr.DegradeReason, tc.reason) {
					t.Errorf("%s: report %+v, want cause %s and reason %q…", tr.Table, tr, tc.cause, tc.reason)
				}
				if note := tr.DegradeNote(); note != tr.Table+": "+tr.DegradeReason {
					t.Errorf("note = %q", note)
				}
			}
			if res.Used() != 0 {
				t.Errorf("reservation still holds %d bytes", res.Used())
			}
		})
	}
	for _, cause := range costmodel.DegradeCauses() {
		if !seen[cause] {
			t.Errorf("cause %s has no case here", cause)
		}
	}
}
