package accuracy

import (
	"testing"
)

// newTestLedger is an enabled ledger at the shipped tuning.
func newTestLedger() *Ledger { return New(DefaultConfig(), nil) }

func TestLedgerStateMachineChurnThenDrift(t *testing.T) {
	l := newTestLedger()

	// Accurate observations keep the statistic fresh.
	for ts := int64(1); ts <= 5; ts++ {
		if tr, ok := l.ObserveFeedback(ts, "owner", "owner(city)", 1.1, 1000); ok {
			t.Fatalf("accurate feedback caused transition %+v", tr)
		}
	}
	if s := l.Snapshot("")[0]; s.State != "fresh" || s.Observations != 5 {
		t.Fatalf("want fresh with 5 obs, got %+v", s)
	}

	// DML churn past 10%% of the base cardinality flips fresh -> aging.
	l.RecordChurn(6, "owner", 150)
	if s := l.Snapshot("")[0]; s.State != "aging" || s.ChurnSinceMerge != 150 {
		t.Fatalf("want aging after churn, got %+v", s)
	}

	// Sustained large misestimates accumulate CUSUM evidence past h.
	var drifted bool
	for ts := int64(7); ts <= 9; ts++ {
		if tr, ok := l.ObserveFeedback(ts, "owner", "owner(city)", 8, 1000); ok {
			if tr.From != StateAging || tr.To != StateDrifted {
				t.Fatalf("unexpected transition %+v", tr)
			}
			drifted = true
		}
	}
	if !drifted {
		t.Fatalf("expected drift detection, snapshot %+v", l.Snapshot(""))
	}
	if d := l.Drifted(); len(d) != 1 || d[0].Key != "owner(city)" || d[0].DriftedAt == 0 {
		t.Fatalf("Drifted() = %+v", d)
	}

	// A merge absorbs fresh evidence: back to fresh, churn and CUSUM reset.
	l.ObserveMerge(10, "owner", "owner(city)")
	s := l.Snapshot("")[0]
	if s.State != "fresh" || s.ChurnSinceMerge != 0 || s.CUSUM != 0 || s.Merges != 1 {
		t.Fatalf("merge did not reset: %+v", s)
	}
	if d := l.Drifted(); len(d) != 0 {
		t.Fatalf("still drifted after merge: %+v", d)
	}
}

func TestLedgerMinObservationsGate(t *testing.T) {
	l := newTestLedger()
	l.ObserveFeedback(1, "car", "car(make)", 100, 1000)
	l.RecordChurn(1, "car", 500) // aging: drift is now reachable
	// Each further gross misestimate exceeds the CUSUM threshold on its
	// own, but the observation floor holds drift back until observation
	// minObservations (one a tick).
	for ts := int64(2); ts < minObservations; ts++ {
		if _, ok := l.ObserveFeedback(ts, "car", "car(make)", 100, 1000); ok {
			t.Fatalf("drifted at %d observations, below minObservations", ts)
		}
	}
	if _, ok := l.ObserveFeedback(minObservations, "car", "car(make)", 100, 1000); !ok {
		t.Fatal("expected drift at the observation floor")
	}
}

func TestLedgerNoDriftWhileFresh(t *testing.T) {
	l := newTestLedger()
	// Persistently bad estimates with no churn and no age: the CUSUM
	// accrues but a fresh statistic never drifts — "always was mediocre"
	// is not drift.
	for ts := int64(1); ts <= 20; ts++ {
		if tr, ok := l.ObserveFeedback(ts, "car", "car(make,model)", 30, 1000); ok {
			t.Fatalf("fresh statistic drifted: %+v", tr)
		}
	}
	s := l.Snapshot("")[0]
	if s.State != "fresh" || s.CUSUM == 0 {
		t.Fatalf("want fresh with accrued CUSUM, got %+v", s)
	}
}

func TestLedgerAgeBasedAging(t *testing.T) {
	l := newTestLedger()
	l.ObserveMerge(1, "owner", "owner(country)")
	l.Tick(1 + agingAgeTicks)
	if s := l.Snapshot("")[0]; s.State != "fresh" {
		t.Fatalf("aged at exactly %d ticks: %+v", agingAgeTicks, s)
	}
	l.Tick(2 + agingAgeTicks)
	if s := l.Snapshot("")[0]; s.State != "aging" {
		t.Fatalf("want aging after %d ticks, got %+v", agingAgeTicks+1, s)
	}
}

func TestLedgerUnderestimatesCountSymmetrically(t *testing.T) {
	l := newTestLedger()
	l.ObserveFeedback(1, "owner", "owner(salary)", 0.125, 1000)
	l.RecordChurn(1, "owner", 500)
	// Error factor 1/8 (underestimate) carries the same |log ef| evidence
	// as 8 (overestimate).
	for ts := int64(2); ts <= minObservations; ts++ {
		l.ObserveFeedback(ts, "owner", "owner(salary)", 0.125, 1000)
	}
	if d := l.Drifted(); len(d) != 1 {
		t.Fatalf("underestimates did not drift: %+v", l.Snapshot(""))
	}
	if s := l.Snapshot("")[0]; s.EWMAQError < 7.9 || s.EWMAQError > 8.1 {
		t.Fatalf("q-error not symmetric: %+v", s)
	}
}

func TestLedgerSnapshotFilterAndCounts(t *testing.T) {
	l := newTestLedger()
	l.ObserveFeedback(1, "owner", "owner(city)", 1.0, 1000)
	l.ObserveFeedback(1, "car", "car(make)", 1.0, 1000)
	l.ObserveFeedback(2, "car", "car(make,model)", 16, 1000)
	l.RecordChurn(2, "car", 500)
	for ts := int64(3); ts <= minObservations+1; ts++ {
		l.ObserveFeedback(ts, "car", "car(make,model)", 16, 1000)
	}
	if got := l.Snapshot("car"); len(got) != 2 {
		t.Fatalf("Snapshot(car) = %+v", got)
	}
	// car(make,model) drifted; car(make) is aging from the same churn.
	tracked, fresh, aging, drifted := l.Counts()
	if tracked != 3 || fresh != 1 || aging != 1 || drifted != 1 {
		t.Fatalf("Counts() = %d %d %d %d", tracked, fresh, aging, drifted)
	}
}

func TestLedgerCapacityBound(t *testing.T) {
	l := newTestLedger()
	l.maxStats = 2
	l.ObserveFeedback(1, "a", "a(x)", 2, 100)
	l.ObserveFeedback(1, "b", "b(x)", 2, 100)
	l.ObserveFeedback(1, "c", "c(x)", 2, 100) // over capacity: dropped
	l.ObserveFeedback(2, "a", "a(x)", 2, 100) // existing entries keep updating
	snap := l.Snapshot("")
	if len(snap) != 2 {
		t.Fatalf("capacity bound violated: %+v", snap)
	}
	if snap[0].Key != "a(x)" || snap[0].Observations != 2 {
		t.Fatalf("existing entry stopped updating: %+v", snap[0])
	}
}

func TestLedgerDisabledRecordsNothing(t *testing.T) {
	l := New(Config{Enabled: false}, nil)
	l.ObserveFeedback(1, "owner", "owner(city)", 100, 1000)
	l.ObserveMerge(2, "owner", "owner(city)")
	l.RecordChurn(3, "owner", 500)
	l.Tick(4)
	if got := l.Snapshot(""); len(got) != 0 {
		t.Fatalf("disabled ledger tracked %+v", got)
	}
	var nilLedger *Ledger
	if nilLedger.Enabled() {
		t.Fatal("nil ledger reports enabled")
	}
	nilLedger.ObserveFeedback(1, "t", "t(x)", 2, 1) // must not panic
	if got := nilLedger.Snapshot(""); got != nil {
		t.Fatalf("nil snapshot = %+v", got)
	}
}

func TestLedgerHistogramBuckets(t *testing.T) {
	l := newTestLedger()
	l.ObserveFeedback(1, "t", "t(x)", 0.05, 100) // below 0.1 bound
	l.ObserveFeedback(2, "t", "t(x)", 1.0, 100)  // middle
	l.ObserveFeedback(3, "t", "t(x)", 500, 100)  // above the last bound
	s := l.Snapshot("")[0]
	if len(s.Hist) != len(s.HistBounds)+1 {
		t.Fatalf("hist length %d for %d bounds", len(s.Hist), len(s.HistBounds))
	}
	var total uint64
	for _, c := range s.Hist {
		total += c
	}
	if total != 3 || s.Hist[len(s.Hist)-1] != 1 {
		t.Fatalf("hist = %v", s.Hist)
	}
}

// BenchmarkDisabledLedgerObserve proves the telemetry discipline: a probe
// on a disabled ledger is one field load, zero allocations. Runs in
// bench-smoke next to the other disabled-path benchmarks.
func BenchmarkDisabledLedgerObserve(b *testing.B) {
	l := New(Config{Enabled: false}, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.ObserveFeedback(int64(i), "owner", "owner(city)", 2, 1000)
	}
}

// BenchmarkEnabledLedgerObserve is the enabled-path cost for comparison.
func BenchmarkEnabledLedgerObserve(b *testing.B) {
	l := New(DefaultConfig(), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.ObserveFeedback(int64(i), "owner", "owner(city)", 1.1, 1000)
	}
}
