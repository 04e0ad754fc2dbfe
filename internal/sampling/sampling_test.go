package sampling

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/qgm"
	"repro/internal/storage"
	"repro/internal/value"
)

func numberTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	tbl := storage.NewTable("t", storage.MustSchema(
		storage.Column{Name: "v", Kind: value.KindInt},
		storage.Column{Name: "parity", Kind: value.KindString},
	))
	rows := make([][]value.Datum, n)
	for i := 0; i < n; i++ {
		p := "even"
		if i%2 == 1 {
			p = "odd"
		}
		rows[i] = []value.Datum{value.NewInt(int64(i)), value.NewString(p)}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// sampleRows draws a row-shaped sample serially, failing the test on error.
func sampleRows(t testing.TB, s *Sampler, tbl *storage.Table, size int, meter *costmodel.Meter, w costmodel.Weights) [][]value.Datum {
	t.Helper()
	rows, err := s.Sample(context.Background(), tbl, size, meter, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestRowsSmallTableCopiedWhole(t *testing.T) {
	tbl := numberTable(t, 50)
	var meter costmodel.Meter
	w := costmodel.DefaultWeights()
	got := sampleRows(t, New(1), tbl, 100, &meter, w)
	if len(got) != 50 {
		t.Errorf("sample = %d rows, want all 50", len(got))
	}
	if meter.Units() != w.SampleRow*50 {
		t.Errorf("meter = %v", meter.Units())
	}
}

func TestRowsLargeTableSampledWithoutReplacement(t *testing.T) {
	tbl := numberTable(t, 10000)
	var meter costmodel.Meter
	got := sampleRows(t, New(42), tbl, 500, &meter, costmodel.DefaultWeights())
	if len(got) != 500 {
		t.Fatalf("sample = %d rows, want 500", len(got))
	}
	seen := make(map[int64]bool)
	for _, row := range got {
		v := row[0].Int()
		if seen[v] {
			t.Fatalf("value %d sampled twice", v)
		}
		seen[v] = true
	}
}

func TestRowsDeterministicBySeed(t *testing.T) {
	tbl := numberTable(t, 5000)
	var m costmodel.Meter
	a := sampleRows(t, New(7), tbl, 100, &m, costmodel.DefaultWeights())
	b := sampleRows(t, New(7), tbl, 100, &m, costmodel.DefaultWeights())
	for i := range a {
		if a[i][0] != b[i][0] {
			t.Fatal("same seed must give same sample")
		}
	}
}

func TestRowsEmptyAndZero(t *testing.T) {
	tbl := numberTable(t, 0)
	var m costmodel.Meter
	if got := sampleRows(t, New(1), tbl, 10, &m, costmodel.DefaultWeights()); got != nil {
		t.Errorf("empty table sample = %v", got)
	}
	tbl2 := numberTable(t, 10)
	if got := sampleRows(t, New(1), tbl2, 0, &m, costmodel.DefaultWeights()); got != nil {
		t.Errorf("zero-size sample = %v", got)
	}
}

func TestRowsRepresentative(t *testing.T) {
	tbl := numberTable(t, 20000)
	var m costmodel.Meter
	sample := sampleRows(t, New(3), tbl, 2000, &m, costmodel.DefaultWeights())
	odd := 0
	for _, row := range sample {
		if row[1].Str() == "odd" {
			odd++
		}
	}
	frac := float64(odd) / float64(len(sample))
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("odd fraction = %v, want ≈0.5", frac)
	}
}

func TestEvaluateGroups(t *testing.T) {
	// Sample of 10 rows: v = 0..9, parity strings.
	sample := make([][]value.Datum, 10)
	for i := range sample {
		p := "even"
		if i%2 == 1 {
			p = "odd"
		}
		sample[i] = []value.Datum{value.NewInt(int64(i)), value.NewString(p)}
	}
	pv5 := qgm.Predicate{Column: "v", Ordinal: 0, Op: qgm.OpGE, Value: value.NewInt(5)}
	podd := qgm.Predicate{Column: "parity", Ordinal: 1, Op: qgm.OpEQ, Value: value.NewString("odd")}
	groups := [][]qgm.Predicate{
		{pv5},       // 5..9 -> 0.5
		{podd},      // 1,3,5,7,9 -> 0.5
		{pv5, podd}, // 5,7,9 -> 0.3
		{},          // empty group -> 1
	}
	var meter costmodel.Meter
	w := costmodel.DefaultWeights()
	sel := EvaluateGroups(sample, groups, &meter, w)
	want := []float64{0.5, 0.5, 0.3, 1}
	for i := range want {
		if math.Abs(sel[i]-want[i]) > 1e-12 {
			t.Errorf("group %d selectivity = %v, want %v", i, sel[i], want[i])
		}
	}
	// Shared vectors: only 2 distinct predicates evaluated.
	if got := meter.Units(); got != w.PredEval*float64(len(sample))*2 {
		t.Errorf("meter = %v, want cost of 2 predicate vectors", got)
	}
}

func TestEvaluateGroupsEmptySample(t *testing.T) {
	var meter costmodel.Meter
	groups := [][]qgm.Predicate{{{Column: "v", Op: qgm.OpEQ, Value: value.NewInt(1)}}}
	sel := EvaluateGroups(nil, groups, &meter, costmodel.DefaultWeights())
	if len(sel) != 1 || sel[0] != 0 {
		t.Errorf("sel = %v", sel)
	}
}

func TestSelectivityFloor(t *testing.T) {
	if got := SelectivityFloor(2000); got != 0.5/2000 {
		t.Errorf("floor(2000) = %v", got)
	}
	if got := SelectivityFloor(0); got != 0.001 {
		t.Errorf("floor(0) = %v", got)
	}
	if got := SelectivityFloor(-5); got != 0.001 {
		t.Errorf("floor(-5) = %v", got)
	}
}

// benchTable is the shape of the benchmark's car table: 43k rows, 8
// columns (three ints, two floats, three strings of varying cardinality).
func benchTable(b *testing.B) *storage.Table {
	b.Helper()
	tbl := storage.NewTable("car", storage.MustSchema(
		storage.Column{Name: "id", Kind: value.KindInt},
		storage.Column{Name: "ownerid", Kind: value.KindInt},
		storage.Column{Name: "year", Kind: value.KindInt},
		storage.Column{Name: "price", Kind: value.KindFloat},
		storage.Column{Name: "mileage", Kind: value.KindFloat},
		storage.Column{Name: "make", Kind: value.KindString},
		storage.Column{Name: "model", Kind: value.KindString},
		storage.Column{Name: "vin", Kind: value.KindString},
	))
	rng := rand.New(rand.NewSource(1))
	rows := make([][]value.Datum, 43000)
	for i := range rows {
		mk := rng.Intn(20)
		rows[i] = []value.Datum{
			value.NewInt(int64(i)), value.NewInt(int64(rng.Intn(20000))), value.NewInt(int64(1990 + rng.Intn(30))),
			value.NewFloat(float64(rng.Intn(4000000)) / 100), value.NewFloat(float64(rng.Intn(300000))),
			value.NewString(fmt.Sprintf("make%02d", mk)), value.NewString(fmt.Sprintf("model%02d-%d", mk, rng.Intn(8))),
			value.NewString(fmt.Sprintf("VIN%014d", rng.Int63n(1e14))),
		}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		b.Fatal(err)
	}
	return tbl
}

func benchSample(b *testing.B, tbl *storage.Table) *storage.Chunk {
	b.Helper()
	var m costmodel.Meter
	sample, err := New(1).SampleColumns(context.Background(), tbl, 2000, &m, costmodel.DefaultWeights(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return sample
}

// BenchmarkSampleDraw: 2000 of 43k rows, 8 columns — one table's draw.
func BenchmarkSampleDraw(b *testing.B) {
	tbl := benchTable(b)
	s := New(1)
	var m costmodel.Meter
	w := costmodel.DefaultWeights()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SampleColumns(context.Background(), tbl, 2000, &m, w, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateGroups: the 7 candidate groups of 3 predicates over one
// 2000-row sample.
func BenchmarkEvaluateGroups(b *testing.B) {
	sample := benchSample(b, benchTable(b))
	preds := []qgm.Predicate{
		{Column: "make", Ordinal: 5, Op: qgm.OpEQ, Value: value.NewString("make07")},
		{Column: "year", Ordinal: 2, Op: qgm.OpGT, Value: value.NewInt(2005)},
		{Column: "price", Ordinal: 3, Op: qgm.OpBetween, Lo: value.NewFloat(5000), Hi: value.NewFloat(20000)},
	}
	var groups [][]qgm.Predicate
	for mask := 1; mask < 8; mask++ {
		var g []qgm.Predicate
		for i, p := range preds {
			if mask&(1<<i) != 0 {
				g = append(g, p)
			}
		}
		groups = append(groups, g)
	}
	var m costmodel.Meter
	w := costmodel.DefaultWeights()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = EvaluateColumns(sample, groups, &m, w, 1)
	}
}

var ndvSink int64 // keeps the measured call from being optimized away

// BenchmarkColumnNDV: Duj1 over one 2000-row vector of each kind. Once the
// counter's table has grown to the sample size it allocates nothing.
func BenchmarkColumnNDV(b *testing.B) {
	sample := benchSample(b, benchTable(b))
	for _, c := range []struct {
		name string
		ord  int
	}{{"int", 1}, {"float", 3}, {"string", 6}, {"string-key", 7}} {
		b.Run(c.name, func(b *testing.B) {
			s := New(1)
			vec := sample.Col(c.ord)
			s.EstimateNDV(vec, 43000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ndvSink = s.EstimateNDV(vec, 43000)
			}
		})
	}
}
