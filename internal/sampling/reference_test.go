package sampling

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/qgm"
	"repro/internal/storage"
	"repro/internal/value"
)

// ---------------------------------------------------------------------------
// Row reference. These are the bodies RowsParallel, EvaluateGroupsParallel
// and EstimateNDV had while a sample was [][]value.Datum, kept as the oracle
// the columnar sample must equal — same rows in the same order, same
// selectivities, same NDVs, same meter units to the last bit. Two changes
// since: a drawn sample's rows are emitted in row order (the picks sorted),
// and Duj1's sampling fraction and exactness test count the sample's rows,
// NULLs included, with the estimate clamped to the table's estimated
// non-NULL rows.

// mustFanOut is fanOut for the reference bodies, which predate its error.
func mustFanOut(n, dop, size int, fn func(lo, hi int)) {
	if err := fanOut(n, dop, size, func(_, lo, hi int) error {
		fn(lo, hi)
		return nil
	}); err != nil {
		panic(err)
	}
}

func refRowsParallel(rng *rand.Rand, tbl *storage.Table, size int, meter *costmodel.Meter, w costmodel.Weights, dop int) [][]value.Datum {
	snap := tbl.Snapshot()
	n := snap.NumRows()
	if n == 0 || size <= 0 {
		return nil
	}
	if EffectiveSampleRows(n, size) == n {
		// Copy the table whole, morsel-parallel in storage order. Rows come
		// straight off the snapshot's column arrays.
		chunks := (n + evalMorselSize - 1) / evalMorselSize
		buckets := make([][][]value.Datum, chunks)
		mustFanOut(n, dop, evalMorselSize, func(lo, hi int) {
			rows := make([][]value.Datum, 0, hi-lo)
			snap.ScanRange(lo, hi, func(_ int, row []value.Datum) bool {
				rows = append(rows, row)
				return true
			})
			buckets[lo/evalMorselSize] = rows
		})
		var out [][]value.Datum
		for _, b := range buckets {
			out = append(out, b...)
		}
		meter.Add(w.SampleRow * float64(len(out)))
		return out
	}
	picked := make(map[int]bool, size)
	positions := make([]int, 0, size)
	for len(positions) < size {
		idx := rng.Intn(n)
		if picked[idx] {
			continue
		}
		picked[idx] = true
		positions = append(positions, idx)
	}
	sort.Ints(positions)
	out := make([][]value.Datum, len(positions))
	mustFanOut(len(positions), dop, evalMorselSize, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Positions were drawn against the snapshot's row count, so the
			// fetch cannot fail.
			out[i], _ = snap.Row(positions[i])
		}
	})
	meter.Add(w.SampleRow * float64(len(out)))
	return out
}

func refEvaluateGroupsParallel(sample [][]value.Datum, groups [][]qgm.Predicate, meter *costmodel.Meter, w costmodel.Weights, dop int) []float64 {
	out := make([]float64, len(groups))
	if len(sample) == 0 {
		return out
	}

	// Distinct predicates across all groups, in deterministic first-use
	// order; each gets one shared match vector.
	type predEntry struct {
		pred qgm.Predicate
		vec  []bool
	}
	index := make(map[string]int)
	var entries []*predEntry
	for _, group := range groups {
		for _, p := range group {
			k := p.String()
			if _, ok := index[k]; !ok {
				index[k] = len(entries)
				entries = append(entries, &predEntry{pred: p})
			}
		}
	}

	// Phase 1: match vectors, one predicate per chunk (vectors are
	// independent; rows within a vector stay sequential for locality).
	mustFanOut(len(entries), dop, 1, func(lo, hi int) {
		sub := meter.Worker()
		for ei := lo; ei < hi; ei++ {
			e := entries[ei]
			v := make([]bool, len(sample))
			for i, row := range sample {
				v[i] = e.pred.MatchesDatum(row[e.pred.Ordinal])
			}
			e.vec = v
			sub.Add(w.PredEval * float64(len(sample)))
		}
		sub.Merge()
	})

	// Phase 2: conjunction counts, one group per chunk.
	mustFanOut(len(groups), dop, 1, func(lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			group := groups[gi]
			if len(group) == 0 {
				out[gi] = 1
				continue
			}
			vecs := make([][]bool, len(group))
			for i, p := range group {
				vecs[i] = entries[index[p.String()]].vec
			}
			count := 0
		rows:
			for i := range sample {
				for _, v := range vecs {
					if !v[i] {
						continue rows
					}
				}
				count++
			}
			out[gi] = float64(count) / float64(len(sample))
		}
	})
	return out
}

// refEstimateNDV counts distinct values with a Go map: within one column Go's
// == on a Datum is the order's equality but for floats, where every NaN is
// one value here and −0 is +0.
func refEstimateNDV(column []value.Datum, tableCard int) int64 {
	counts := make(map[value.Datum]int, len(column))
	n := 0
	for _, d := range column {
		if d.IsNull() {
			continue
		}
		if d.Kind() == value.KindFloat {
			if f := d.Float(); f != f {
				d = value.NewString("NaN")
			} else {
				d = value.NewFloat(f + 0) // −0 + 0 = +0
			}
		}
		counts[d]++
		n++
	}
	d, rows := int64(len(counts)), len(column)
	if d == 0 || tableCard <= 0 {
		return 0
	}
	if rows >= tableCard {
		return d // full scan: exact
	}
	f1 := 0
	for _, c := range counts {
		if c == 1 {
			f1++
		}
	}
	nonNull := int64(tableCard) * int64(n) / int64(rows)
	q := float64(rows) / float64(tableCard)
	denom := 1 - (1-q)*float64(f1)/float64(n)
	if denom <= 0 {
		return nonNull // everything distinct in the sample: key-like
	}
	est := int64(float64(d) / denom)
	if est < d {
		est = d
	}
	if est > nonNull {
		est = nonNull
	}
	return est
}

// ---------------------------------------------------------------------------

var adversarialSchema = storage.MustSchema(
	storage.Column{Name: "id", Kind: value.KindInt},
	storage.Column{Name: "dup", Kind: value.KindInt},
	storage.Column{Name: "f", Kind: value.KindFloat},
	storage.Column{Name: "s", Kind: value.KindString},
	storage.Column{Name: "void", Kind: value.KindString},
)

var (
	adversarialFloats  = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -1.5}
	adversarialStrings = []string{"", "", "a", "ab", "abcdefg", "abcdefh", "zz"}
)

// adversarialRow draws one row of adversarialSchema: a key, a duplicate-heavy
// int, a float that is often NaN, ±Inf, −0 or NULL, a string that is often
// empty or NULL or shares a 6-byte prefix with another, and an all-NULL
// column.
func adversarialRow(rng *rand.Rand, id int) []value.Datum {
	row := []value.Datum{value.NewInt(int64(id)), value.NewInt(int64(rng.Intn(4))), value.Null, value.Null, value.Null}
	switch k := rng.Intn(10); {
	case k < 3:
		row[2] = value.NewFloat(adversarialFloats[rng.Intn(len(adversarialFloats))])
	case k < 8:
		row[2] = value.NewFloat(float64(rng.Intn(40)) / 4)
	}
	switch k := rng.Intn(10); {
	case k < 4:
		row[3] = value.NewString(adversarialStrings[rng.Intn(len(adversarialStrings))])
	case k < 8:
		row[3] = value.NewString(fmt.Sprintf("v%03d", rng.Intn(300)))
	}
	if rng.Intn(50) == 0 {
		row[1] = value.Null
	}
	return row
}

// adversarialTable loads n adversarial rows, then runs DML between an early
// snapshot (held, so every later write copies its chunk) and the caller's
// draw: an update, a delete that swaps tail rows into holes, and an insert
// that leaves a partial tail chunk.
func adversarialTable(t *testing.T, rng *rand.Rand, n, chunkSize int) (*storage.Table, *storage.Snapshot) {
	t.Helper()
	tbl := storage.NewTableWithChunkSize("t", adversarialSchema, chunkSize)
	rows := make([][]value.Datum, n)
	for i := range rows {
		rows[i] = adversarialRow(rng, i)
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	held := tbl.Snapshot()
	if _, err := tbl.UpdateWhere(
		storage.MatchRows(func(row []value.Datum) bool { return row[0].Int()%7 == 0 }),
		[]storage.Assignment{{Ordinal: 2, Value: value.NewFloat(math.NaN())}, {Ordinal: 3, Value: value.NewString("")}},
	); err != nil {
		t.Fatal(err)
	}
	tbl.DeleteWhere(storage.MatchRows(func(row []value.Datum) bool { return row[0].Int()%11 == 3 }))
	for i := 0; i < 5; i++ {
		if err := tbl.Insert(adversarialRow(rng, n+i)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl, held
}

// adversarialGroups draws candidate groups over random predicates whose
// constants come from the adversarial pools (NULL and NaN operands
// included); predicates repeat across groups, as Algorithm 1's subsets do.
func adversarialGroups(rng *rand.Rand) [][]qgm.Predicate {
	constant := func(ord int) value.Datum {
		switch {
		case rng.Intn(12) == 0:
			return value.Null
		case ord == 2:
			if rng.Intn(3) == 0 {
				return value.NewFloat(adversarialFloats[rng.Intn(len(adversarialFloats))])
			}
			return value.NewFloat(float64(rng.Intn(40)) / 4)
		case ord == 3 || ord == 4:
			if rng.Intn(2) == 0 {
				return value.NewString(adversarialStrings[rng.Intn(len(adversarialStrings))])
			}
			return value.NewString(fmt.Sprintf("v%03d", rng.Intn(300)))
		case ord == 1:
			return value.NewInt(int64(rng.Intn(4)))
		default:
			return value.NewInt(int64(rng.Intn(3000)))
		}
	}
	preds := make([]qgm.Predicate, 2+rng.Intn(3))
	for i := range preds {
		ord := rng.Intn(adversarialSchema.NumColumns())
		p := qgm.Predicate{Column: adversarialSchema.Column(ord).Name, Ordinal: ord, Op: qgm.PredOp(rng.Intn(8))}
		switch p.Op {
		case qgm.OpBetween:
			p.Lo, p.Hi = constant(ord), constant(ord)
		case qgm.OpIn:
			for k := rng.Intn(4); k >= 0; k-- {
				p.Values = append(p.Values, constant(ord))
			}
		default:
			p.Value = constant(ord)
		}
		preds[i] = p
	}
	groups := [][]qgm.Predicate{{}}
	for mask := 1; mask < 1<<len(preds); mask++ {
		var g []qgm.Predicate
		for i, p := range preds {
			if mask&(1<<i) != 0 {
				g = append(g, p)
			}
		}
		groups = append(groups, g)
	}
	return groups
}

// sameRows compares two row sets datum by datum; NaN equals NaN and −0
// differs from +0, so the comparison is on identity, not on SQL equality.
func sameRows(a, b [][]value.Datum) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %d columns vs %d", i, len(a[i]), len(b[i]))
		}
		for c := range a[i] {
			x, y := a[i][c], b[i][c]
			same := x == y
			if x.Kind() == value.KindFloat && y.Kind() == value.KindFloat {
				same = math.Float64bits(x.Float()) == math.Float64bits(y.Float())
			}
			if !same {
				return fmt.Errorf("row %d column %d: %v vs %v", i, c, x, y)
			}
		}
	}
	return nil
}

// TestColumnarSampleMatchesRowReference: for the same seed the columnar
// sample, transposed, is the row sample; every group selectivity and every
// column NDV computed from vectors equals the row-shaped computation; and
// the meters agree to the last bit — on the whole-table and the picked
// path, at dop 1 and 4, at chunk sizes that do and do not align with the
// null-bitmap words, over adversarial data, with DML before and after the
// draw.
func TestColumnarSampleMatchesRowReference(t *testing.T) {
	w := costmodel.DefaultWeights()
	ctx := context.Background()
	cases := []struct {
		name          string
		n, size, draw int // table rows loaded, requested sample, rows expected back
	}{
		{"whole", 1900, 1000, 0},
		{"picked", 6000, 1500, 1500},
		{"picked-small", 700, 100, 100},
	}
	for _, tc := range cases {
		for _, chunkSize := range []int{64, 100, storage.DefaultChunkSize} {
			for _, dop := range []int{1, 4} {
				for seed := int64(1); seed <= 4; seed++ {
					name := fmt.Sprintf("%s/chunk%d/dop%d/seed%d", tc.name, chunkSize, dop, seed)
					rng := rand.New(rand.NewSource(seed))
					tbl, held := adversarialTable(t, rng, tc.n, chunkSize)
					card := tbl.RowCount()

					var gotMeter, wantMeter costmodel.Meter
					s := New(seed)
					ref := rand.New(rand.NewSource(seed))
					// Two draws in a row: the second proves the draw scratch
					// was left clean and the rng advanced exactly as before.
					for round := 0; round < 2; round++ {
						sample, err := s.SampleColumns(ctx, tbl, tc.size, &gotMeter, w, dop, nil)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want := refRowsParallel(ref, tbl, tc.size, &wantMeter, w, dop)
						if tc.draw == 0 && len(want) != card || tc.draw != 0 && len(want) != tc.draw {
							t.Fatalf("%s: reference drew %d rows of %d", name, len(want), card)
						}
						transposed := func() [][]value.Datum {
							rows := make([][]value.Datum, sample.Rows())
							for i := range rows {
								rows[i] = sample.AppendRowTo(nil, i)
							}
							return rows
						}
						if err := sameRows(transposed(), want); err != nil {
							t.Fatalf("%s round %d: sample differs: %v", name, round, err)
						}

						groups := adversarialGroups(rng)
						got, err := s.EvaluateColumns(sample, groups, &gotMeter, w, dop)
						if err != nil {
							t.Fatal(err)
						}
						wantSels := refEvaluateGroupsParallel(want, groups, &wantMeter, w, dop)
						for gi := range wantSels {
							if math.Float64bits(got[gi]) != math.Float64bits(wantSels[gi]) {
								t.Fatalf("%s: group %d %v selectivity %v, reference %v", name, gi, groups[gi], got[gi], wantSels[gi])
							}
						}
						if adapter := EvaluateGroups(want, groups, &gotMeter, w); fmt.Sprint(adapter) != fmt.Sprint(wantSels) {
							t.Fatalf("%s: row adapter selectivities %v, reference %v", name, adapter, wantSels)
						}
						refEvaluateGroupsParallel(want, groups, &wantMeter, w, 1) // the adapter's charge

						for c := 0; c < adversarialSchema.NumColumns(); c++ {
							column := make([]value.Datum, len(want))
							for i, row := range want {
								column[i] = row[c]
							}
							for _, tableCard := range []int{card, card * 50, len(want) / 2, 0} {
								if got, want := s.CountColumn(sample.Col(c)).EstimateNDV(tableCard), refEstimateNDV(column, tableCard); got != want {
									t.Fatalf("%s: column %d NDV at card %d = %d, reference %d", name, c, tableCard, got, want)
								}
							}
						}

						// The sample is detached: DML after the draw leaves it alone.
						tbl.DeleteWhere(storage.MatchRows(func(row []value.Datum) bool { return row[0].Int()%5 == int64(round) }))
						if err := sameRows(transposed(), want); err != nil {
							t.Fatalf("%s round %d: sample moved under later DML: %v", name, round, err)
						}
						card = tbl.RowCount()
					}
					if math.Float64bits(gotMeter.Units()) != math.Float64bits(wantMeter.Units()) {
						t.Fatalf("%s: meter %v, reference %v", name, gotMeter.Units(), wantMeter.Units())
					}
					if held.NumRows() != tc.n {
						t.Fatalf("%s: held snapshot changed size", name)
					}
				}
			}
		}
	}
}

// TestSampleAdapterMatchesReference: the frozen row-shaped entry point is
// the columnar sample transposed, at the same rng state.
func TestSampleAdapterMatchesReference(t *testing.T) {
	w := costmodel.DefaultWeights()
	for _, tc := range []struct{ n, size int }{{1900, 1000}, {6000, 1500}, {0, 10}, {10, 0}} {
		rng := rand.New(rand.NewSource(9))
		tbl, _ := adversarialTable(t, rng, tc.n, 100)
		var gotMeter, wantMeter costmodel.Meter
		got, err := New(3).Sample(context.Background(), tbl, tc.size, &gotMeter, w, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := refRowsParallel(rand.New(rand.NewSource(3)), tbl, tc.size, &wantMeter, w, 4)
		if err := sameRows(got, want); err != nil {
			t.Fatalf("n=%d size=%d: %v", tc.n, tc.size, err)
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("n=%d size=%d: nil-ness differs: %v vs %v", tc.n, tc.size, got == nil, want == nil)
		}
		if gotMeter.Units() != wantMeter.Units() {
			t.Fatalf("n=%d size=%d: meter %v vs %v", tc.n, tc.size, gotMeter.Units(), wantMeter.Units())
		}
	}
}
