package feedback

import (
	"math"
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

func TestRecordAndLookup(t *testing.T) {
	h := NewHistory()
	// Mirror the paper's Table 1.
	h.Record("t1", name("t1(a,b,c)"), names("t1(a,b)", "t1(c)"), 0.4)
	h.Record("t1", name("t1(a,b,c)"), names("t1(a)", "t1(b,c)"), 0.7)
	h.Record("t1", name("t1(a,b,c)"), names("t1(a,b,c)"), 1.0)
	h.Record("t1", name("t1(a,b,d)"), names("t1(a,b)", "t1(d)"), 0.6)

	got := h.EntriesFor("t1", name("t1(a,b,c)"))
	if len(got) != 3 {
		t.Fatalf("EntriesFor = %d entries, want 3", len(got))
	}
	if h.TotalCount() != 4 || h.Len() != 4 {
		t.Errorf("TotalCount=%d Len=%d", h.TotalCount(), h.Len())
	}
	using := h.EntriesUsing(name("t1(a,b)"))
	if len(using) != 2 {
		t.Fatalf("EntriesUsing(t1(a,b)) = %d entries, want 2", len(using))
	}
	if len(h.EntriesUsing(name("t1(z)"))) != 0 {
		t.Error("EntriesUsing of unknown stat must be empty")
	}
	if len(h.EntriesFor("t9", name("t9(a)"))) != 0 {
		t.Error("EntriesFor of unknown table must be empty")
	}
}

func TestRecordMergesAndEWMA(t *testing.T) {
	h := NewHistory()
	h.Record("t", name("t(a)"), names("t(a)"), 1.0)
	h.Record("t", name("t(a)"), names("t(a)"), 0.5)
	got := h.EntriesFor("t", name("t(a)"))
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
	h := NewHistory()
	h.Record("t", name("t(a,b)"), names("t(a)", "t(b)"), 1.0)
	h.Record("t", name("t(a,b)"), names("t(b)", "t(a)"), 1.0)
	if h.Len() != 1 {
		t.Errorf("Len = %d, statlist order must not split entries", h.Len())
	}
}

func TestEntriesAreCopies(t *testing.T) {
	h := NewHistory()
	h.Record("t", name("t(a)"), names("t(a)"), 1.0)
	got := h.EntriesFor("t", name("t(a)"))
	got[0].ErrorFactor = 99
	got[0].StatList[0] = name("t(mutated)")
	again := h.EntriesFor("t", name("t(a)"))
	if again[0].ErrorFactor == 99 || again[0].StatList[0] == name("t(mutated)") {
		t.Error("lookup must return copies")
	}
}

func TestReset(t *testing.T) {
	h := NewHistory()
	h.Record("t", name("t(a)"), names("t(a)"), 1.0)
	h.Reset()
	if h.Len() != 0 || h.TotalCount() != 0 {
		t.Error("Reset failed")
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
// history — once mixed into the EWMA it would never decay out.
func TestRecordIgnoresNonFinite(t *testing.T) {
	h := NewHistory()
	h.Record("t", name("t(a)"), names("t(a)"), math.NaN())
	h.Record("t", name("t(a)"), names("t(a)"), math.Inf(1))
	if h.Len() != 0 || h.TotalCount() != 0 {
		t.Fatalf("non-finite records entered history: len=%d total=%d", h.Len(), h.TotalCount())
	}
	h.Record("t", name("t(a)"), names("t(a)"), 0.5)
	h.Record("t", name("t(a)"), names("t(a)"), math.NaN())
	got := h.EntriesFor("t", name("t(a)"))
	if len(got) != 1 || got[0].Count != 1 || got[0].ErrorFactor != 0.5 {
		t.Errorf("entry corrupted by non-finite record: %+v", got)
	}
}

func TestDeterministicOrdering(t *testing.T) {
	h := NewHistory()
	h.Record("t", name("t(a)"), names("t(b)"), 1)
	h.Record("t", name("t(a)"), names("t(a)"), 1)
	h.Record("t", name("t(a)"), names("t(c)"), 1)
	got := h.EntriesFor("t", name("t(a)"))
	if got[0].StatList[0] != name("t(a)") || got[1].StatList[0] != name("t(b)") || got[2].StatList[0] != name("t(c)") {
		t.Errorf("entries not deterministically sorted: %+v", got)
	}
}
