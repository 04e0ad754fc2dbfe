package executor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// joinKeyPool holds the values a join key must tell apart or must not:
// strings that spell the encoding's own tags and the old '|' separator,
// int/float twins, both zeros, NaN, and ints and floats around 2^53 and 2^63
// where float64 runs out of integers and int64 out of range.
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
	value.NewFloat(0.5), value.NewFloat(1<<53 - 1), value.NewFloat(1 << 53), value.NewFloat(1<<53 + 2),
	value.NewFloat(1 << 63), value.NewFloat(-(1 << 63)), value.NewFloat(math.Inf(1)),
	value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0x7FF8000000000001)),
}

// keyColumns is one row as the one-row key vectors the join gathers.
func keyColumns(row []value.Datum) []*storage.ColumnVec {
	ch := storage.ChunkFromRows([][]value.Datum{row})
	cols := make([]*storage.ColumnVec, len(row))
	for i := range cols {
		cols[i] = ch.Col(i)
	}
	return cols
}

// Property: two rows get byte-equal join keys — the concatenated value.Keys
// of their columns — exactly when every key column pair is Datum.Equal, and a
// row gets no key exactly when a key column is NULL. One column is checked
// over every pair of the pool, two and three columns over random tuples
// biased towards equal prefixes.
func TestJoinKeyEqualIffDatumsEqual(t *testing.T) {
	check := func(a, b []value.Datum) {
		t.Helper()
		wantOK := [2]bool{true, true}
		equal := true
		for i := range a {
			wantOK[0] = wantOK[0] && !a[i].IsNull()
			wantOK[1] = wantOK[1] && !b[i].IsNull()
			equal = equal && a[i].Equal(b[i])
		}
		ka, okA := appendJoinKeyTo(nil, keyColumns(a), 0)
		kb, okB := appendJoinKeyTo(nil, keyColumns(b), 0)
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
