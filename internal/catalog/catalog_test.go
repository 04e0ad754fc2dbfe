package catalog

import (
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/histogram"
	"repro/internal/storage"
	"repro/internal/value"
)

func sampleTable(t *testing.T) *storage.Table {
	t.Helper()
	tbl := storage.NewTable("car", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "make", Kind: value.KindString},
		storage.Column{Name: "price", Kind: value.KindFloat},
	))
	makes := []string{"Toyota", "Toyota", "Toyota", "Toyota", "Honda", "Honda", "BMW", "Audi", "Audi", "Ford"}
	rows := make([][]value.Datum, 0, 100)
	for i := 0; i < 100; i++ {
		price := value.NewFloat(float64(10000 + i*500))
		if i == 99 {
			price = value.Null
		}
		rows = append(rows, []value.Datum{
			value.NewInt(int64(i)),
			value.NewString(makes[i%len(makes)]),
			price,
		})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestRunstatsBasics(t *testing.T) {
	tbl := sampleTable(t)
	var meter costmodel.Meter
	w := costmodel.DefaultWeights()
	stats, err := Runstats(tbl, 5, &meter, w)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cardinality != 100 {
		t.Errorf("cardinality = %d", stats.Cardinality)
	}
	if stats.CollectedAt != 5 {
		t.Errorf("CollectedAt = %d", stats.CollectedAt)
	}
	id := stats.Columns["id"]
	if id.NDV != 100 || id.NullCount != 0 {
		t.Errorf("id stats = %+v", id)
	}
	if id.Min.Int() != 0 || id.Max.Int() != 99 {
		t.Errorf("id min/max = %v/%v", id.Min, id.Max)
	}
	mk := stats.Columns["make"]
	if mk.NDV != 5 {
		t.Errorf("make NDV = %d", mk.NDV)
	}
	// Toyota appears 40 times: must head the frequent values.
	if len(mk.Freq) == 0 || mk.Freq[0].Value.Str() != "Toyota" || mk.Freq[0].Count != 40 {
		t.Errorf("make freq = %+v", mk.Freq)
	}
	pr := stats.Columns["price"]
	if pr.NullCount != 1 || pr.NDV != 99 {
		t.Errorf("price stats: nulls=%d ndv=%d", pr.NullCount, pr.NDV)
	}
	if meter.Units() != w.RunstatsRow*100*3 {
		t.Errorf("meter = %v", meter.Units())
	}
	// Runstats resets the UDI counter.
	if tbl.UDICounter().Total() != 0 {
		t.Error("UDI not reset")
	}
}

func TestRunstatsHistogramQuality(t *testing.T) {
	tbl := sampleTable(t)
	var meter costmodel.Meter
	stats, err := Runstats(tbl, 0, &meter, costmodel.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	h := stats.Columns["id"].Hist
	if h == nil {
		t.Fatal("no histogram on id")
	}
	got, err := h.EstimateBox(histogram.Box{Lo: []float64{0}, Hi: []float64{50}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 0.05 {
		t.Errorf("id < 50 estimate = %v", got)
	}
	// Equality estimate via frequent values beats the histogram for the
	// heavy make: here we check the histogram at least exists for strings.
	if stats.Columns["make"].Hist == nil {
		t.Error("no histogram on make")
	}
}

func TestRunstatsEmptyTable(t *testing.T) {
	tbl := storage.NewTable("empty", storage.MustSchema(storage.Column{Name: "a", Kind: value.KindInt}))
	var meter costmodel.Meter
	stats, err := Runstats(tbl, 0, &meter, costmodel.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cardinality != 0 {
		t.Errorf("cardinality = %d", stats.Cardinality)
	}
	if stats.Columns["a"].Hist != nil {
		t.Error("empty column must have nil histogram")
	}
	if !stats.Columns["a"].Min.IsNull() {
		t.Error("empty column min must be NULL")
	}
}

func TestRunstatsAllNullColumn(t *testing.T) {
	tbl := storage.NewTable("t", storage.MustSchema(storage.Column{Name: "a", Kind: value.KindInt}))
	for i := 0; i < 5; i++ {
		if err := tbl.Insert([]value.Datum{value.Null}); err != nil {
			t.Fatal(err)
		}
	}
	var meter costmodel.Meter
	stats, err := Runstats(tbl, 0, &meter, costmodel.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	a := stats.Columns["a"]
	if a.NullCount != 5 || a.NDV != 0 || a.Hist != nil {
		t.Errorf("all-null stats = %+v", a)
	}
}

// TestRunstatsIgnoresWhatHasNoCoordinate: a NaN or an infinity is a row and
// a distinct value (every NaN the same one, −0 the same as +0) and nothing
// else — not the column's min or max, wherever it sits, and not a histogram
// coordinate.
func TestRunstatsIgnoresWhatHasNoCoordinate(t *testing.T) {
	nan2 := math.Float64frombits(0x7FF8000000000001)
	for _, fs := range [][]float64{
		{math.NaN(), 1, 5, math.Inf(1), nan2, math.Copysign(0, -1), 0, math.Inf(-1), 5},
		{5, math.Inf(-1), 0, 5, math.Copysign(0, -1), 1, math.Inf(1), math.NaN(), nan2},
	} {
		tbl := storage.NewTable("t", storage.MustSchema(storage.Column{Name: "f", Kind: value.KindFloat}))
		for _, f := range fs {
			if err := tbl.Insert([]value.Datum{value.NewFloat(f)}); err != nil {
				t.Fatal(err)
			}
		}
		var meter costmodel.Meter
		stats, err := Runstats(tbl, 0, &meter, costmodel.DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		f := stats.Columns["f"]
		if f.NDV != 6 || f.Min.Float() != 0 || f.Max.Float() != 5 || stats.Cardinality != 9 {
			t.Errorf("%v: NDV %d min %v max %v of %d rows; want 6 distinct (NaN, ±Inf, 0, 1, 5), 0, 5, 9", fs, f.NDV, f.Min, f.Max, stats.Cardinality)
		}
		if lo, hi := f.Hist.Domain(0); lo != 0 || !(hi > 5 && hi < 6) {
			t.Errorf("%v: histogram over [%v, %v); want the finite values' [0, 5+unit)", fs, lo, hi)
		}
	}
}

func TestUnitFor(t *testing.T) {
	if UnitFor(value.KindInt, value.NewInt(0), value.NewInt(100)) != 1 {
		t.Error("int unit must be 1")
	}
	if UnitFor(value.KindString, value.Null, value.Null) != 1 {
		t.Error("string unit must be 1")
	}
	u := UnitFor(value.KindFloat, value.NewFloat(0), value.NewFloat(1000))
	if u <= 0 || u > 1e-5 {
		t.Errorf("float unit = %v", u)
	}
	// Degenerate float range falls back to a positive epsilon.
	u = UnitFor(value.KindFloat, value.NewFloat(5), value.NewFloat(5))
	if u <= 0 {
		t.Errorf("degenerate float unit = %v", u)
	}
}

func TestCatalogStoreLifecycle(t *testing.T) {
	c := New()
	if _, ok := c.TableStats("car"); ok {
		t.Error("cold catalog must be empty")
	}
	c.SetTableStats(&TableStats{Table: "car", Cardinality: 10})
	c.SetTableStats(&TableStats{Table: "owner", Cardinality: 20})
	if ts, ok := c.TableStats("car"); !ok || ts.Cardinality != 10 {
		t.Errorf("car stats = %+v, %v", ts, ok)
	}
	if got := c.Tables(); len(got) != 2 || got[0] != "car" || got[1] != "owner" {
		t.Errorf("Tables = %v", got)
	}
	c.Drop("car")
	if _, ok := c.TableStats("car"); ok {
		t.Error("dropped stats still present")
	}
	c.Clear()
	if len(c.Tables()) != 0 {
		t.Error("Clear failed")
	}
}

func TestFrequentValueDeterministicOrder(t *testing.T) {
	tbl := storage.NewTable("t", storage.MustSchema(storage.Column{Name: "a", Kind: value.KindString}))
	for _, s := range []string{"b", "a", "c", "b", "a", "c"} { // all count 2
		if err := tbl.Insert([]value.Datum{value.NewString(s)}); err != nil {
			t.Fatal(err)
		}
	}
	var meter costmodel.Meter
	stats, err := Runstats(tbl, 0, &meter, costmodel.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	f := stats.Columns["a"].Freq
	if len(f) != 3 || f[0].Value.Str() != "a" || f[1].Value.Str() != "b" || f[2].Value.Str() != "c" {
		t.Errorf("freq order = %+v", f)
	}
}
