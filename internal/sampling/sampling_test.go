package sampling

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// pickOrderDraw is the draw as it was while a sample came in pick order: size
// distinct positions in [0, n), in the order the rng picked them.
func pickOrderDraw(rng *rand.Rand, n, size int) []int {
	seen := make([]uint64, (n+63)/64)
	positions := make([]int, 0, size)
	for len(positions) < size {
		idx := rng.Intn(n)
		if seen[idx>>6]&(1<<(uint(idx)&63)) != 0 {
			continue
		}
		seen[idx>>6] |= 1 << (uint(idx) & 63)
		positions = append(positions, idx)
	}
	return positions
}

// TestDrawIsTheSameSample: the row-ordered draw picks exactly the positions
// the pick-order draw did, sorted, and leaves the rng where that draw left
// it — over one sampler's successive draws on tables of different sizes
// (its bitmap and positions are reused, and must come back clean).
func TestDrawIsTheSameSample(t *testing.T) {
	draws := []struct{ n, size int }{
		{100000, 2000}, {43000, 2000}, {6000, 2999}, {65, 32}, {64, 1}, {1, 1}, {4001, 2000}, {200, 100},
	}
	for seed := int64(1); seed <= 5; seed++ {
		s := New(seed)
		ref := rand.New(rand.NewSource(seed))
		for _, d := range draws {
			want := pickOrderDraw(ref, d.n, d.size)
			slices.Sort(want)
			got := s.draw(d.n, d.size)
			if len(got) != len(want) {
				t.Fatalf("seed %d n=%d size=%d: %d positions, want %d", seed, d.n, d.size, len(got), len(want))
			}
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("seed %d n=%d size=%d: position %d is %d, want %d", seed, d.n, d.size, i, got[i], want[i])
				}
			}
			for w, word := range s.seen {
				if word != 0 {
					t.Fatalf("seed %d n=%d size=%d: seen word %d left %#x", seed, d.n, d.size, w, word)
				}
			}
			if a, b := s.rng.Int63(), ref.Int63(); a != b {
				t.Fatalf("seed %d n=%d size=%d: rng moved on to %d, want %d", seed, d.n, d.size, a, b)
			}
		}
	}
}

// TestEstimateNDVCountsNullRows: Duj1's sampling fraction and its exactness
// test count the sample's rows, not its non-NULL values. A 3000-row table
// sampled at 2000 is copied whole, so a unique column that is 10 % NULL has
// exactly 2700 distinct values; drawn from a 20000-row table, the same
// column estimates to the table's estimated non-NULL rows, not to the table.
func TestEstimateNDVCountsNullRows(t *testing.T) {
	uniqueWithNulls := func(n int) *storage.Table {
		tbl := storage.NewTable("t", storage.MustSchema(storage.Column{Name: "u", Kind: value.KindInt}))
		rows := make([][]value.Datum, n)
		for i := range rows {
			rows[i] = []value.Datum{value.NewInt(int64(i))}
			if i%10 == 0 {
				rows[i][0] = value.Null
			}
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	var m costmodel.Meter
	w := costmodel.DefaultWeights()
	s := New(1)

	sample, err := s.SampleColumns(context.Background(), uniqueWithNulls(3000), 2000, &m, w, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sample.Rows() != 3000 {
		t.Fatalf("sample of %d rows, want the whole table", sample.Rows())
	}
	if got := s.CountColumn(sample.Col(0)).EstimateNDV(3000); got != 2700 {
		t.Errorf("whole-table NDV = %d, want 2700", got)
	}

	sample, err = s.SampleColumns(context.Background(), uniqueWithNulls(20000), 2000, &m, w, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	vec := sample.Col(0)
	live := 0
	for i := 0; i < vec.Len(); i++ {
		if !vec.Null(i) {
			live++
		}
	}
	nonNull := int64(20000 * live / vec.Len())
	if got := s.CountColumn(vec).EstimateNDV(20000); got != nonNull {
		t.Errorf("sampled NDV = %d, want the %d estimated non-NULL rows", got, nonNull)
	}
}

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
	sample, err := New(1).SampleColumns(context.Background(), tbl, 2000, &m, costmodel.DefaultWeights(), 1, nil)
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
		if _, err := s.SampleColumns(context.Background(), tbl, 2000, &m, w, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateGroups: the 7 candidate groups of 3 predicates over one
// 2000-row sample, on a sampler's scratch as JITS collection runs it.
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
	s := New(1)
	var m costmodel.Meter
	w := costmodel.DefaultWeights()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.EvaluateColumns(sample, groups, &m, w, 1)
	}
}

var ndvSink int64 // keeps the measured call from being optimized away

// benchColumns are the sample columns the per-column benchmarks run over:
// int, float, strings of at most 8 bytes with few distinct values
// ("make07"), of 9 to 16 ("model07-3") and of 17, all distinct (VINs).
var benchColumns = []struct {
	name string
	ord  int
}{{"int", 1}, {"float", 3}, {"string-short", 5}, {"string-16", 6}, {"string-key", 7}}

// BenchmarkColumnNDV: Duj1's count over one 2000-row vector of each kind.
// Once the counter's table has grown to the sample size it allocates
// nothing.
func BenchmarkColumnNDV(b *testing.B) {
	sample := benchSample(b, benchTable(b))
	for _, c := range benchColumns {
		b.Run(c.name, func(b *testing.B) {
			s := New(1)
			vec := sample.Col(c.ord)
			s.CountColumn(vec)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ndvSink = s.CountColumn(vec).EstimateNDV(43000)
			}
		})
	}
}

var minMaxSink value.Datum

// BenchmarkColumnMinMax: the domain pass of a group column over the same
// vectors, a walk with no table; it allocates nothing.
func BenchmarkColumnMinMax(b *testing.B) {
	sample := benchSample(b, benchTable(b))
	for _, c := range benchColumns {
		b.Run(c.name, func(b *testing.B) {
			vec := sample.Col(c.ord)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				minMaxSink, _ = MinMax(vec)
			}
		})
	}
}
