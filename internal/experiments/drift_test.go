package experiments

import (
	"testing"
)

// TestDriftQuick is the clock-injected fast drift run CI executes
// (`make test`): after the mid-run city boom, the feedback store must
// flag the shifted table — and only the shifted table — as drifted. The
// run is fully deterministic (seeded data and queries, logical-tick clock),
// so the asserted set is exact, not probabilistic.
func TestDriftQuick(t *testing.T) {
	opts := QuickOptions()
	opts.Queries = 160
	rep, err := Drift(opts)
	if err != nil {
		t.Fatalf("Drift: %v", err)
	}
	if len(rep.DriftedTables) != 1 || rep.DriftedTables[0] != rep.ShiftedTable {
		t.Fatalf("drifted tables = %v, want exactly [%s]\nrows: %+v",
			rep.DriftedTables, rep.ShiftedTable, rep.Rows)
	}
	// The warm phase must end clean: nothing drifted before the shift.
	for _, r := range rep.Rows {
		if r.Phase == "warm" && r.State == "drifted" {
			t.Fatalf("stat %s drifted before the shift: %+v", r.Stat, r)
		}
	}
	// The shifted table's drifted statistics must show the churn the boom
	// caused and the drift evidence that tripped the detector.
	var sawDrifted bool
	for _, r := range rep.Rows {
		if r.Phase != "shifted" || r.State != "drifted" {
			continue
		}
		sawDrifted = true
		if r.Table != rep.ShiftedTable {
			t.Fatalf("drifted stat on unshifted table: %+v", r)
		}
		if r.ChurnRows == 0 {
			t.Errorf("drifted stat %s shows no churn", r.Stat)
		}
	}
	if !sawDrifted {
		t.Fatalf("no drifted rows in shifted phase: %+v", rep.Rows)
	}
}
