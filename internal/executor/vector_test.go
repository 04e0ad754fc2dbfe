package executor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/qgm"
	"repro/internal/storage"
	"repro/internal/value"
)

func vecSchema(t *testing.T) *storage.Schema {
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
// compiled vectorized filter must select exactly the offsets whose datums
// satisfy MatchesDatum row by row — the typed fast paths may only skip
// boxing, never change the answer.
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
		f := compileFilter(preds, schema)

		snap := tbl.Snapshot()
		var sel []int
		snap.Range(0, snap.NumRows(), func(ch *storage.Chunk, base, clo, chi int) bool {
			sel = f.selectRange(ch, clo, chi, sel)
			want := make([]int, 0, chi-clo)
			for i := clo; i < chi; i++ {
				ok := true
				for _, p := range preds {
					if !p.MatchesDatum(ch.Col(p.Ordinal).Datum(i)) {
						ok = false
						break
					}
				}
				if ok {
					want = append(want, i)
				}
			}
			if len(sel) != len(want) {
				t.Fatalf("seed %d base %d: selectRange picked %v, want %v (preds %v)", seed, base, sel, want, preds)
			}
			for k := range sel {
				if sel[k] != want[k] {
					t.Fatalf("seed %d base %d: selectRange picked %v, want %v (preds %v)", seed, base, sel, want, preds)
				}
			}
			return true
		})
	}
}

// joinKeyPool holds the values a join key must tell apart or must not:
// strings that spell the encoding's own tags and the old '|' separator,
// int/float twins, both zeros, ints around 2^53 where float64 runs out of
// integers, and the int64 extremes. Floats stay inside ±2^53: past it
// Datum.Equal compares mixed int/float pairs lossily and is no longer
// transitive, so it has no key.
var joinKeyPool = []value.Datum{
	value.Null,
	value.NewString(""), value.NewString("a"), value.NewString("b"), value.NewString("c"),
	value.NewString("a|sb"), value.NewString("b|sc"), value.NewString("|"), value.NewString("|s"),
	value.NewString("'"), value.NewString("a'"), value.NewString("s"), value.NewString("n5|"),
	value.NewString("5"), value.NewString("\x01a"),
	value.NewInt(0), value.NewInt(5), value.NewInt(-5),
	value.NewInt(1<<53 - 1), value.NewInt(1 << 53), value.NewInt(1<<53 + 1), value.NewInt(-(1<<53 + 1)),
	value.NewInt(math.MaxInt64), value.NewInt(math.MaxInt64 - 1), value.NewInt(math.MinInt64),
	value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(5), value.NewFloat(-5),
	value.NewFloat(0.5), value.NewFloat(1<<53 - 1), value.NewFloat(math.Inf(1)),
}

// Property: two rows get byte-equal join keys exactly when every key column
// pair is Datum.Equal, and a row gets no key exactly when a key column is
// NULL. One column is checked over every pair of the pool, two and three
// columns over random tuples biased towards equal prefixes.
func TestJoinKeyEqualIffDatumsEqual(t *testing.T) {
	check := func(a, b []value.Datum) {
		t.Helper()
		cols := make([]int, len(a))
		wantOK := [2]bool{true, true}
		equal := true
		for i := range a {
			cols[i] = i
			wantOK[0] = wantOK[0] && !a[i].IsNull()
			wantOK[1] = wantOK[1] && !b[i].IsNull()
			equal = equal && a[i].Equal(b[i])
		}
		ka, okA := appendJoinKeyTo(nil, a, cols)
		kb, okB := appendJoinKeyTo(nil, b, cols)
		if okA != wantOK[0] || okB != wantOK[1] {
			t.Fatalf("rows %v / %v: ok=%v/%v, want %v", a, b, okA, okB, wantOK)
		}
		if okA && okB && (string(ka) == string(kb)) != equal {
			t.Fatalf("rows %v / %v: keys %q / %q, but Equal on every column = %v", a, b, ka, kb, equal)
		}
	}
	for _, x := range joinKeyPool {
		for _, y := range joinKeyPool {
			check([]value.Datum{x}, []value.Datum{y})
		}
	}
	rng := rand.New(rand.NewSource(7))
	pick := func() value.Datum { return joinKeyPool[rng.Intn(len(joinKeyPool))] }
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(2) + 2
		a, b := make([]value.Datum, n), make([]value.Datum, n)
		for i := range a {
			a[i], b[i] = pick(), pick()
			if rng.Intn(2) == 0 {
				b[i] = a[i]
			}
		}
		check(a, b)
	}
	// The pair from the bug report: one '|'-joined spelling, two tuples.
	check([]value.Datum{value.NewString("a|sb"), value.NewString("c")},
		[]value.Datum{value.NewString("a"), value.NewString("b|sc")})
}

// The group-key encoder must be byte-identical to fmt.Sprintf("%s|", d)
// (Datum.String), covering NULL, ints, floats (incl. NaN/Inf), and strings
// with embedded quotes.
func TestAppendGroupKeyMatchesFmt(t *testing.T) {
	cases := []value.Datum{
		value.Null,
		value.NewInt(0), value.NewInt(-7), value.NewInt(123456789),
		value.NewFloat(0), value.NewFloat(-1.5), value.NewFloat(1e300),
		value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)),
		value.NewString(""), value.NewString("plain"), value.NewString("o'brien"), value.NewString("''"),
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		cases = append(cases, randOperand(rng))
	}
	for _, d := range cases {
		want := fmt.Sprintf("%s|", d)
		if got := string(appendGroupKeyDatum(nil, d)); got != want {
			t.Fatalf("datum %v: encoded %q, want %q", d, got, want)
		}
	}
}
