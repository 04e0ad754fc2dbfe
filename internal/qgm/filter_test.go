package qgm_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/qgm"
	"repro/internal/sampling"
	"repro/internal/storage"
	"repro/internal/value"
)

func vecSchema(t testing.TB) *storage.Schema {
	t.Helper()
	s, err := storage.NewSchema(
		storage.Column{Name: "i", Kind: value.KindInt},
		storage.Column{Name: "f", Kind: value.KindFloat},
		storage.Column{Name: "s", Kind: value.KindString},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randDatum draws a value for column ord, with nulls, NaN/Inf floats, and
// quote-bearing strings mixed in to hit every encoder and comparator edge.
func randDatum(rng *rand.Rand, ord int) value.Datum {
	if rng.Intn(8) == 0 {
		return value.Null
	}
	switch ord {
	case 0:
		return value.NewInt(int64(rng.Intn(21) - 10))
	case 1:
		switch rng.Intn(10) {
		case 0:
			return value.NewFloat(math.NaN())
		case 1:
			return value.NewFloat(math.Inf(1))
		case 2:
			return value.NewFloat(math.Inf(-1))
		case 3:
			return value.NewFloat(0)
		default:
			return value.NewFloat(float64(rng.Intn(41)-20) / 4)
		}
	default:
		words := []string{"a", "b", "cc", "d'd", "''", "", "zz", "m"}
		return value.NewString(words[rng.Intn(len(words))])
	}
}

// randOperand draws a predicate operand of any kind (deliberately including
// kind mismatches and NULL, which must route to the generic fallback).
func randOperand(rng *rand.Rand) value.Datum {
	switch rng.Intn(7) {
	case 0:
		return value.Null
	case 1, 2:
		return value.NewInt(int64(rng.Intn(21) - 10))
	case 3, 4:
		if rng.Intn(8) == 0 {
			return value.NewFloat(math.NaN())
		}
		return value.NewFloat(float64(rng.Intn(41)-20) / 4)
	default:
		words := []string{"a", "b", "cc", "d'd", "zz"}
		return value.NewString(words[rng.Intn(len(words))])
	}
}

func randPredicate(rng *rand.Rand, schema *storage.Schema) qgm.Predicate {
	ord := rng.Intn(3)
	p := qgm.Predicate{Slot: 0, Column: schema.Column(ord).Name, Ordinal: ord}
	switch rng.Intn(8) {
	case 0:
		p.Op = qgm.OpBetween
		p.Lo, p.Hi = randOperand(rng), randOperand(rng)
	case 1:
		p.Op = qgm.OpIn
		for k := rng.Intn(4); k >= 0; k-- {
			p.Values = append(p.Values, randOperand(rng))
		}
	default:
		p.Op = qgm.PredOp(rng.Intn(6)) // EQ..GE
		p.Value = randOperand(rng)
	}
	return p
}

// Property: for every random chunk × random predicate conjunction, the
// compiled predicates must select exactly the offsets whose datums satisfy
// MatchesDatum row by row — the typed fast paths may only skip boxing, never
// change the answer. Both consumers are held to it: the executor's scan
// (AppendMatches chunk by chunk, RowMatcher position by position) and JITS
// group evaluation, whose selectivity of a group over a sample must be the
// row-by-row match count exactly.
func TestCompiledFilterMatchesRowByRow(t *testing.T) {
	schema := vecSchema(t)
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := storage.NewTableWithChunkSize("t", schema, 8)
		nrows := rng.Intn(30)
		for r := 0; r < nrows; r++ {
			row := []value.Datum{randDatum(rng, 0), randDatum(rng, 1), randDatum(rng, 2)}
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		preds := make([]qgm.Predicate, rng.Intn(3)+1)
		for i := range preds {
			preds[i] = randPredicate(rng, schema)
		}
		rowByRow := func(ch *storage.Chunk, i int) bool {
			for _, p := range preds {
				if !p.MatchesDatum(ch.Col(p.Ordinal).Datum(i)) {
					return false
				}
			}
			return true
		}

		snap := tbl.Snapshot()
		matches := qgm.RowMatcher(preds, snap)
		matched := 0
		sel := []int32{-7} // AppendMatches appends: what is there stays
		snap.Range(0, snap.NumRows(), func(ch *storage.Chunk, base, clo, chi int) bool {
			sel = qgm.AppendMatches(sel[:1], preds, ch, clo, chi, base)
			var want []int32
			for i := clo; i < chi; i++ {
				if rowByRow(ch, i) {
					want = append(want, int32(base+i))
				}
				if got := matches(base + i); got != rowByRow(ch, i) {
					t.Fatalf("seed %d row %d: RowMatcher says %v (preds %v)", seed, base+i, got, preds)
				}
			}
			matched += len(want)
			if sel[0] != -7 || !slices.Equal(sel[1:], want) {
				t.Fatalf("seed %d base %d: AppendMatches picked %v, want %v (preds %v)", seed, base, sel, want, preds)
			}
			return true
		})

		// The sampling caller: the whole table as one detached sample chunk.
		if nrows == 0 {
			continue
		}
		sample := storage.NewDetachedChunk(schema, nrows)
		snap.Gather(sample, nil, 0, nrows)
		var m costmodel.Meter
		groups := [][]qgm.Predicate{preds}
		for _, p := range preds {
			groups = append(groups, []qgm.Predicate{p})
		}
		got, err := sampling.EvaluateColumns(sample, groups, &m, costmodel.DefaultWeights(), 1+int(seed%2))
		if err != nil {
			t.Fatal(err)
		}
		for gi, group := range groups {
			want := 0
			for i := 0; i < nrows; i++ {
				ok := true
				for _, p := range group {
					ok = ok && p.MatchesDatum(sample.Col(p.Ordinal).Datum(i))
				}
				if ok {
					want++
				}
			}
			if got[gi] != float64(want)/float64(nrows) {
				t.Fatalf("seed %d: EvaluateColumns(%v) = %v, want %d/%d", seed, group, got[gi], want, nrows)
			}
		}
		if float64(matched)/float64(nrows) != got[0] {
			t.Fatalf("seed %d: scan matched %d of %d rows, sampling says %v", seed, matched, nrows, got[0])
		}
	}
}

var matchSink []int32

// BenchmarkAppendMatches prices the typed kernels per row: one predicate
// over one 4096-row chunk for each column kind × operand kind with a loop of
// its own, plus the pairing that has none (a string column against a number,
// through MatchesDatum). The float and int-vs-float rows are where the
// order's totality — NaN placed, an int against a float compared exactly —
// costs its extra branch.
func BenchmarkAppendMatches(b *testing.B) {
	schema := vecSchema(b)
	rng := rand.New(rand.NewSource(1))
	rows := make([][]value.Datum, storage.DefaultChunkSize)
	for i := range rows {
		rows[i] = []value.Datum{
			value.NewInt(int64(rng.Intn(1000))), value.NewFloat(float64(rng.Intn(4000)) / 4),
			value.NewString([]string{"Toyota", "Honda", "BMW", "Audi", "Ford"}[rng.Intn(5)]),
		}
	}
	tbl := storage.NewTable("t", schema)
	if err := tbl.InsertBatch(rows); err != nil {
		b.Fatal(err)
	}
	ch := tbl.Snapshot().Chunk(0)
	for _, c := range []struct {
		name string
		pred qgm.Predicate
	}{
		{"int-col/int", qgm.Predicate{Ordinal: 0, Op: qgm.OpLT, Value: value.NewInt(500)}},
		{"int-col/float", qgm.Predicate{Ordinal: 0, Op: qgm.OpLT, Value: value.NewFloat(499.5)}},
		{"float-col/float", qgm.Predicate{Ordinal: 1, Op: qgm.OpLT, Value: value.NewFloat(499.5)}},
		{"float-col/int", qgm.Predicate{Ordinal: 1, Op: qgm.OpLT, Value: value.NewInt(500)}},
		{"float-col/between", qgm.Predicate{Ordinal: 1, Op: qgm.OpBetween, Lo: value.NewFloat(250), Hi: value.NewFloat(750)}},
		{"string-col/eq", qgm.Predicate{Ordinal: 2, Op: qgm.OpEQ, Value: value.NewString("Honda")}},
		{"string-col/int-fallback", qgm.Predicate{Ordinal: 2, Op: qgm.OpGT, Value: value.NewInt(3)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			preds := []qgm.Predicate{c.pred}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matchSink = qgm.AppendMatches(matchSink[:0], preds, ch, 0, ch.Rows(), 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ch.Rows()), "ns/row")
		})
	}
}
