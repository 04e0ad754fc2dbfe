package feedback

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/qgm"
)

// name reads a statistic name from its text; names reads a statlist.
func name(text string) qgm.StatName {
	n, err := qgm.ParseStatName(text)
	if err != nil {
		panic(err)
	}
	return n
}

func names(texts ...string) []qgm.StatName {
	out := make([]qgm.StatName, len(texts))
	for i, text := range texts {
		out[i] = name(text)
	}
	return out
}

func TestAccuracy(t *testing.T) {
	cases := []struct {
		ef, want float64
	}{
		{1, 1},
		{0.5, 0.5},
		{2, 0.5},
		{0.25, 0.25},
		{4, 0.25},
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
	}
	for _, c := range cases {
		if got := Accuracy(c.ef); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Accuracy(%v) = %v, want %v", c.ef, got, c.want)
		}
	}
}

func TestAccuracySymmetryProperty(t *testing.T) {
	f := func(raw uint16) bool {
		ef := float64(raw)/1000 + 0.001
		return math.Abs(Accuracy(ef)-Accuracy(1/ef)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// record observes one estimate of colgrp from statlist whose error factor is
// exactly ef: the actual selectivity is 2^-10 of a 2^20-row table.
func record(s *Store, colgrp string, statlist []qgm.StatName, ef float64) {
	const act = 1.0 / 1024
	s.Observe(0, []Observation{{Table: name(colgrp).Table(), ColGrp: name(colgrp), StatList: statlist,
		EstSel: ef * act, ActualSel: act, BaseCard: 1 << 20}})
}

func TestRecordAndLookup(t *testing.T) {
	h := NewStore()
	// Mirror the paper's Table 1.
	record(h, "t1(a,b,c)", names("t1(a,b)", "t1(c)"), 0.4)
	record(h, "t1(a,b,c)", names("t1(a)", "t1(b,c)"), 0.7)
	record(h, "t1(a,b,c)", names("t1(a,b,c)"), 1.0)
	record(h, "t1(a,b,d)", names("t1(a,b)", "t1(d)"), 0.6)

	got := h.For(name("t1(a,b,c)"))
	if len(got) != 3 {
		t.Fatalf("For = %d entries, want 3", len(got))
	}
	if h.TotalCount() != 4 || h.Len() != 4 {
		t.Errorf("TotalCount=%d Len=%d", h.TotalCount(), h.Len())
	}
	using := h.Using(name("t1(a,b)"))
	if len(using) != 2 {
		t.Fatalf("Using(t1(a,b)) = %d entries, want 2", len(using))
	}
	if len(h.Using(name("t1(z)"))) != 0 {
		t.Error("Using of unknown stat must be empty")
	}
	if len(h.For(name("t9(a)"))) != 0 {
		t.Error("For of unknown group must be empty")
	}
}

func TestRecordMergesAndEWMA(t *testing.T) {
	h := NewStore()
	record(h, "t(a)", names("t(a)"), 1.0)
	record(h, "t(a)", names("t(a)"), 0.5)
	got := h.For(name("t(a)"))
	if len(got) != 1 {
		t.Fatalf("entries = %d, want 1 merged", len(got))
	}
	if got[0].Count != 2 {
		t.Errorf("count = %d", got[0].Count)
	}
	want := 0.5*1.0 + 0.5*0.5
	if math.Abs(got[0].ErrorFactor-want) > 1e-12 {
		t.Errorf("ef = %v, want %v", got[0].ErrorFactor, want)
	}
}

func TestStatListOrderInsensitive(t *testing.T) {
	h := NewStore()
	record(h, "t(a,b)", names("t(a)", "t(b)"), 1.0)
	record(h, "t(a,b)", names("t(b)", "t(a)"), 1.0)
	if h.Len() != 1 {
		t.Errorf("Len = %d, statlist order must not split entries", h.Len())
	}
}

func TestEntriesAreCopies(t *testing.T) {
	h := NewStore()
	record(h, "t(a)", names("t(a)"), 1.0)
	got := h.For(name("t(a)"))
	got[0].ErrorFactor = 99
	got[0].StatList[0] = name("t(mutated)")
	again := h.For(name("t(a)"))
	if again[0].ErrorFactor == 99 || again[0].StatList[0] == name("t(mutated)") {
		t.Error("lookup must return copies")
	}
}

// TestMergedOnlyGroupHasNoRows: a column group the archive merged but no
// estimate ever targeted has a drift account and no StatHistory rows. It is
// no recurring target for Algorithm 4's bootstrap rule, gives Algorithm 3
// nothing to take the max over, and adds nothing to Algorithm 4's F.
func TestMergedOnlyGroupHasNoRows(t *testing.T) {
	h := NewStore()
	h.ObserveMerge(1, name("t(a)"))
	record(h, "t(b)", names("t(b)"), 1.0)
	if tracked, _, _, _ := h.Counts(); tracked != 2 {
		t.Fatalf("tracked = %d, want the merged and the observed group", tracked)
	}
	if h.Observed(name("t(a)")) || len(h.For(name("t(a)"))) != 0 {
		t.Errorf("merged-only group: Observed = %v, For = %+v", h.Observed(name("t(a)")), h.For(name("t(a)")))
	}
	if !h.Observed(name("t(b)")) {
		t.Error("observed group reports no rows")
	}
	if h.Len() != 1 || h.TotalCount() != 1 {
		t.Errorf("Len = %d, TotalCount = %d, want 1 and 1", h.Len(), h.TotalCount())
	}
}

func TestErrorFactor(t *testing.T) {
	// Paper example: estimated 0.2, actual 0.5 → ef 0.4.
	if got := ErrorFactor(0.2, 0.5, 1000); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("ef = %v, want 0.4", got)
	}
	// Zero actual is floored to half a row.
	got := ErrorFactor(0.1, 0, 1000)
	if math.IsInf(got, 0) || got != 0.1/(0.5/1000) {
		t.Errorf("floored ef = %v", got)
	}
	// Zero estimate floored too.
	got = ErrorFactor(0, 0.1, 1000)
	if got <= 0 {
		t.Errorf("ef = %v", got)
	}
	// Zero cardinality uses the tiny default floor without dividing by zero.
	if got := ErrorFactor(0.5, 0.5, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("ef = %v", got)
	}
}

// TestErrorFactorDegenerateInputs pins the hardening contract: whatever the
// selectivities — NaN from a 0/0 division, ±Inf, negatives, values above 1,
// non-positive cardinalities — the error factor is finite and positive.
func TestErrorFactorDegenerateInputs(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 1.5, 0, 1e300}
	cards := []int64{-1, 0, 1, 1000, math.MaxInt64}
	for _, est := range bad {
		for _, act := range bad {
			for _, card := range cards {
				ef := ErrorFactor(est, act, card)
				if math.IsNaN(ef) || math.IsInf(ef, 0) || ef <= 0 {
					t.Errorf("ErrorFactor(%v, %v, %d) = %v, want finite positive", est, act, card, ef)
				}
			}
		}
	}
	// NaN estimate with a known actual behaves like a floored (vanishing)
	// estimate, not like a perfect one.
	if got := ErrorFactor(math.NaN(), 0.5, 1000); got >= 1 {
		t.Errorf("NaN estimate ef = %v, want << 1", got)
	}
	// +Inf estimate clamps to the selectivity ceiling of 1.
	if got := ErrorFactor(math.Inf(1), 0.5, 1000); math.Abs(got-2) > 1e-12 {
		t.Errorf("Inf estimate ef = %v, want 2", got)
	}
}

// TestErrorFactorBoundedProperty: for arbitrary finite inputs the result
// stays within [floor, 1/floor], the paper's meaningful error-factor range.
func TestErrorFactorBoundedProperty(t *testing.T) {
	f := func(eRaw, aRaw uint32, cRaw uint16) bool {
		est := float64(eRaw) / float64(math.MaxUint32) // [0, 1]
		act := float64(aRaw) / float64(math.MaxUint32)
		card := int64(cRaw) + 1
		floor := 0.5 / float64(card)
		ef := ErrorFactor(est, act, card)
		return ef >= floor*(1-1e-12) && ef <= (1/floor)*(1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRecordIgnoresNonFinite: a non-finite error factor must not enter the
// store — once mixed into an EWMA it would never decay out. Whatever
// selectivities an observation carries, the factor Observe files is finite.
func TestRecordIgnoresNonFinite(t *testing.T) {
	h := NewStore()
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, est := range bad {
		for _, act := range append(bad, 0.5) {
			obs := []Observation{{Table: "t", ColGrp: name("t(a)"), StatList: names("t(a)"), EstSel: est, ActualSel: act, BaseCard: 1000}}
			h.Observe(1, obs)
			if ef := obs[0].ErrorFactor; math.IsNaN(ef) || math.IsInf(ef, 0) {
				t.Fatalf("Observe(%v, %v) filed error factor %v", est, act, ef)
			}
		}
	}
	got := h.For(name("t(a)"))
	if len(got) != 1 || got[0].Count != 12 || math.IsNaN(got[0].ErrorFactor) || math.IsInf(got[0].ErrorFactor, 0) {
		t.Errorf("entry corrupted by non-finite selectivities: %+v", got)
	}
	s := h.Snapshot("")[0]
	if math.IsNaN(s.EWMAQError) || math.IsInf(s.EWMAQError, 0) || math.IsNaN(s.CUSUM) || math.IsInf(s.CUSUM, 0) {
		t.Errorf("drift account corrupted by non-finite selectivities: %+v", s)
	}
}

func TestDeterministicOrdering(t *testing.T) {
	h := NewStore()
	record(h, "t(a)", names("t(b)"), 1)
	record(h, "t(a)", names("t(a)"), 1)
	record(h, "t(a)", names("t(c)"), 1)
	got := h.For(name("t(a)"))
	if got[0].StatList[0] != name("t(a)") || got[1].StatList[0] != name("t(b)") || got[2].StatList[0] != name("t(c)") {
		t.Errorf("entries not deterministically sorted: %+v", got)
	}
}

// TestUsingOrder: Using orders by table, column group, then statlist text —
// the order Algorithm 4 sums its usefulness score in.
func TestUsingOrder(t *testing.T) {
	h := NewStore()
	record(h, "u(x)", names("s(k)", "u(x)"), 0.125)
	record(h, "t(b)", names("s(k)", "t(b)"), 0.25)
	record(h, "t(a)", names("s(k)", "t(z)"), 0.375)
	record(h, "t(a)", names("s(k)", "t(a)"), 0.5)
	var got []float64
	for _, e := range h.Using(name("s(k)")) {
		got = append(got, e.ErrorFactor)
	}
	if want := []float64{0.5, 0.375, 0.25, 0.125}; !slices.Equal(got, want) {
		t.Errorf("Using order by error factor = %v, want %v", got, want)
	}
}
