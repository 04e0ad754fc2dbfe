package feedback

import (
	"testing"
)

// observe feeds one estimate of colgrp, from the statistic of the same name,
// whose error factor is exactly ef on a table of card rows (card ≥ 1000),
// and returns the transition it caused.
func observe(s *Store, ts int64, colgrp string, ef float64, card int64) (Transition, bool) {
	act := 1.0 / 1024
	if ef < 1 {
		act = 0.5
	}
	trs := s.Observe(ts, []Observation{{Table: name(colgrp).Table(), ColGrp: name(colgrp), StatList: names(colgrp),
		EstSel: ef * act, ActualSel: act, BaseCard: card}})
	if len(trs) == 0 {
		return Transition{}, false
	}
	return trs[0], true
}

func TestLedgerStateMachineChurnThenDrift(t *testing.T) {
	s := NewStore()

	// Accurate observations keep the statistic fresh.
	for ts := int64(1); ts <= 5; ts++ {
		if tr, ok := observe(s, ts, "owner(city)", 1.1, 1000); ok {
			t.Fatalf("accurate feedback caused transition %+v", tr)
		}
	}
	if a := s.Snapshot("")[0]; a.State != "fresh" || a.Observations != 5 {
		t.Fatalf("want fresh with 5 obs, got %+v", a)
	}

	// DML churn past 10% of the base cardinality flips fresh -> aging.
	s.RecordChurn(6, "owner", 150)
	if a := s.Snapshot("")[0]; a.State != "aging" || a.ChurnSinceMerge != 150 {
		t.Fatalf("want aging after churn, got %+v", a)
	}

	// Sustained large misestimates accumulate CUSUM evidence past h.
	var drifted bool
	for ts := int64(7); ts <= 9; ts++ {
		if tr, ok := observe(s, ts, "owner(city)", 8, 1000); ok {
			if tr.From != StateAging || tr.To != StateDrifted || tr.Stat != name("owner(city)") {
				t.Fatalf("unexpected transition %+v", tr)
			}
			drifted = true
		}
	}
	if !drifted {
		t.Fatalf("expected drift detection, snapshot %+v", s.Snapshot(""))
	}
	if d := s.Drifted(); len(d) != 1 || d[0].Key != "owner(city)" || d[0].DriftedAt == 0 {
		t.Fatalf("Drifted() = %+v", d)
	}

	// A merge absorbs fresh evidence: back to fresh, churn and CUSUM reset.
	s.ObserveMerge(10, name("owner(city)"))
	a := s.Snapshot("")[0]
	if a.State != "fresh" || a.ChurnSinceMerge != 0 || a.CUSUM != 0 || a.Merges != 1 {
		t.Fatalf("merge did not reset: %+v", a)
	}
	if d := s.Drifted(); len(d) != 0 {
		t.Fatalf("still drifted after merge: %+v", d)
	}
}

func TestLedgerMinObservationsGate(t *testing.T) {
	s := NewStore()
	observe(s, 1, "car(make)", 100, 1000)
	s.RecordChurn(1, "car", 500) // aging: drift is now reachable
	// Each further gross misestimate exceeds the CUSUM threshold on its
	// own, but the observation floor holds drift back until observation
	// minObservations (one a tick).
	for ts := int64(2); ts < minObservations; ts++ {
		if _, ok := observe(s, ts, "car(make)", 100, 1000); ok {
			t.Fatalf("drifted at %d observations, below minObservations", ts)
		}
	}
	if _, ok := observe(s, minObservations, "car(make)", 100, 1000); !ok {
		t.Fatal("expected drift at the observation floor")
	}
}

func TestLedgerNoDriftWhileFresh(t *testing.T) {
	s := NewStore()
	// Persistently bad estimates with no churn and no age: the CUSUM
	// accrues but a fresh statistic never drifts — "always was mediocre"
	// is not drift.
	for ts := int64(1); ts <= 20; ts++ {
		if tr, ok := observe(s, ts, "car(make,model)", 30, 1000); ok {
			t.Fatalf("fresh statistic drifted: %+v", tr)
		}
	}
	a := s.Snapshot("")[0]
	if a.State != "fresh" || a.CUSUM == 0 {
		t.Fatalf("want fresh with accrued CUSUM, got %+v", a)
	}
}

func TestLedgerAgeBasedAging(t *testing.T) {
	s := NewStore()
	s.ObserveMerge(1, name("owner(country)"))
	s.Tick(1 + agingAgeTicks)
	if a := s.Snapshot("")[0]; a.State != "fresh" {
		t.Fatalf("aged at exactly %d ticks: %+v", agingAgeTicks, a)
	}
	s.Tick(2 + agingAgeTicks)
	if a := s.Snapshot("")[0]; a.State != "aging" {
		t.Fatalf("want aging after %d ticks, got %+v", agingAgeTicks+1, a)
	}
}

func TestLedgerUnderestimatesCountSymmetrically(t *testing.T) {
	s := NewStore()
	observe(s, 1, "owner(salary)", 0.125, 1000)
	s.RecordChurn(1, "owner", 500)
	// Error factor 1/8 (underestimate) carries the same |log ef| evidence
	// as 8 (overestimate).
	for ts := int64(2); ts <= minObservations; ts++ {
		observe(s, ts, "owner(salary)", 0.125, 1000)
	}
	if d := s.Drifted(); len(d) != 1 {
		t.Fatalf("underestimates did not drift: %+v", s.Snapshot(""))
	}
	if a := s.Snapshot("")[0]; a.EWMAQError < 7.9 || a.EWMAQError > 8.1 {
		t.Fatalf("q-error not symmetric: %+v", a)
	}
}

func TestLedgerSnapshotFilterAndCounts(t *testing.T) {
	s := NewStore()
	observe(s, 1, "owner(city)", 1.0, 1000)
	observe(s, 1, "car(make)", 1.0, 1000)
	observe(s, 2, "car(make,model)", 16, 1000)
	s.RecordChurn(2, "car", 500)
	for ts := int64(3); ts <= minObservations+1; ts++ {
		observe(s, ts, "car(make,model)", 16, 1000)
	}
	if got := s.Snapshot("car"); len(got) != 2 {
		t.Fatalf("Snapshot(car) = %+v", got)
	}
	// car(make,model) drifted; car(make) is aging from the same churn.
	tracked, fresh, aging, drifted := s.Counts()
	if tracked != 3 || fresh != 1 || aging != 1 || drifted != 1 {
		t.Fatalf("Counts() = %d %d %d %d", tracked, fresh, aging, drifted)
	}
}

func TestLedgerHistogramBuckets(t *testing.T) {
	s := NewStore()
	observe(s, 1, "t(x)", 0.05, 1000) // below 0.1 bound
	observe(s, 2, "t(x)", 1.0, 1000)  // middle
	observe(s, 3, "t(x)", 500, 1000)  // above the last bound
	a := s.Snapshot("")[0]
	if len(a.Hist) != len(a.HistBounds)+1 {
		t.Fatalf("hist length %d for %d bounds", len(a.Hist), len(a.HistBounds))
	}
	var total uint64
	for _, c := range a.Hist {
		total += c
	}
	if total != 3 || a.Hist[len(a.Hist)-1] != 1 {
		t.Fatalf("hist = %v", a.Hist)
	}
}

// BenchmarkObserve is one statement's observation of a column group the
// store already holds, both accounts and the histogram: no allocation.
func BenchmarkObserve(b *testing.B) {
	s := NewStore()
	obs := []Observation{{Table: "owner", ColGrp: name("owner(city)"), StatList: names("owner(city)", "owner(age)"),
		EstSel: 0.11, ActualSel: 0.1, BaseCard: 1000}}
	s.Observe(0, obs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(int64(i), obs)
	}
}
