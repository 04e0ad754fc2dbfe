package qgm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/value"
)

// The reference renderers are the fmt forms predicate text and predicate-group
// names were written with before AppendText. Statistic names are stored in
// archive files, so a name that drifts from them by one byte would orphan
// every saved memo entry: FuzzPredicateText holds the appenders to them.

func refDatum(d value.Datum) string {
	switch d.Kind() {
	case value.KindNull:
		return "NULL"
	case value.KindInt:
		return strconv.FormatInt(d.Int(), 10)
	case value.KindFloat:
		return strconv.FormatFloat(d.Float(), 'g', -1, 64)
	default:
		return "'" + strings.ReplaceAll(d.Str(), "'", "''") + "'"
	}
}

func refPredicate(p Predicate) string {
	switch p.Op {
	case OpBetween:
		return fmt.Sprintf("%s BETWEEN %s AND %s", p.Column, refDatum(p.Lo), refDatum(p.Hi))
	case OpIn:
		parts := make([]string, len(p.Values))
		for i, v := range p.Values {
			parts[i] = refDatum(v)
		}
		return fmt.Sprintf("%s IN (%s)", p.Column, strings.Join(parts, ","))
	default:
		return fmt.Sprintf("%s %s %s", p.Column, p.Op, refDatum(p.Value))
	}
}

func refPredicateGroup(table string, preds []Predicate) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = refPredicate(p)
	}
	sort.Strings(parts)
	return table + "{" + strings.Join(parts, " AND ") + "}"
}

// fuzzDatum picks a datum of kind k%4 from the payloads.
func fuzzDatum(k uint8, i int64, f float64, s string) value.Datum {
	switch k % 4 {
	case 0:
		return value.Null
	case 1:
		return value.NewInt(i)
	case 2:
		return value.NewFloat(f)
	default:
		return value.NewString(s)
	}
}

// FuzzPredicateText: Datum.AppendText, Predicate.AppendText and String, and
// the PredicateGroup name equal the reference fmt renderers byte for byte,
// over every operator (and one past them), IN lists, BETWEEN, quotes inside
// strings, NaN, ±Inf, −0 and integers beyond 2^53; SameText is equality of
// the reference texts.
func FuzzPredicateText(f *testing.F) {
	type operand struct {
		k uint8
		i int64
		f float64
		s string
	}
	operands := []operand{
		{0, 0, 0, ""},
		{1, 1, 0, ""},
		{2, 0, 1, ""}, // 1.0 renders as the integer 1
		{1, 1<<53 + 1, 0, ""},
		{1, math.MinInt64, 0, ""},
		{2, 0, 1 << 53, ""},
		{2, 0, math.NaN(), ""},
		{2, 0, math.Inf(1), ""},
		{2, 0, math.Inf(-1), ""},
		{2, 0, math.Copysign(0, -1), ""},
		{2, 0, 5e-324, ""},
		{2, 0, 1e21, ""},
		{3, 0, 0, "O'Brien"},
		{3, 0, 0, "''"},
		{3, 0, 0, "a,b) AND x = 'y"},
		{3, 0, 0, ""},
		{3, 0, 0, "NULL"},
	}
	for op := range uint8(OpIn + 2) {
		for j, a := range operands {
			b := operands[(j*7+int(op))%len(operands)]
			f.Add(op, "make", a.k, a.i, a.f, a.s, b.k, b.i, b.f, b.s, uint8(j%5))
		}
	}
	f.Fuzz(func(t *testing.T, op uint8, col string, k1 uint8, i1 int64, f1 float64, s1 string, k2 uint8, i2 int64, f2 float64, s2 string, n uint8) {
		a, b := fuzzDatum(k1, i1, f1, s1), fuzzDatum(k2, i2, f2, s2)
		for _, d := range []value.Datum{a, b} {
			if got, want := string(d.AppendText([]byte("x"))), "x"+refDatum(d); got != want || d.String() != refDatum(d) {
				t.Fatalf("datum %#v: AppendText %q, String %q, want %q", d, got, d.String(), want)
			}
		}
		p := Predicate{Column: col, Op: PredOp(op % uint8(OpIn+2)), Value: a, Lo: a, Hi: b}
		for j := range int(n % 6) {
			p.Values = append(p.Values, [2]value.Datum{a, b}[j%2])
		}
		want := refPredicate(p)
		if got := string(p.AppendText([]byte("prefix "))); got != "prefix "+want {
			t.Fatalf("AppendText = %q, want %q", got, "prefix "+want)
		}
		if got := p.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}

		others := []Predicate{
			{Column: col, Op: OpEQ, Value: b},
			{Column: s1, Op: OpIn, Values: []value.Datum{b, a}},
			{Column: col, Op: OpBetween, Lo: b, Hi: a},
		}
		for _, q := range others {
			if got := p.SameText(q); got != (want == refPredicate(q)) {
				t.Fatalf("SameText(%q, %q) = %v", want, refPredicate(q), got)
			}
		}
		group := append([]Predicate{p}, others[:n%4]...)
		name := PredicateGroup(s2, group)
		if want := refPredicateGroup(s2, group); name.String() != want {
			t.Fatalf("PredicateGroup = %q, want %q", name, want)
		}
		if name.Table() != s2 {
			t.Fatalf("PredicateGroup(%q).Table() = %q", s2, name.Table())
		}
		if got := string(appendPredicateGroup([]byte("k:"), s2, group)); got != "k:"+name.String() {
			t.Fatalf("appendPredicateGroup after a prefix = %q, want %q", got, "k:"+name.String())
		}
	})
}

// BenchmarkPredicateGroup names a three-predicate group — the shape of a
// memo or fresh-selectivity lookup on a paper query — and one point
// predicate, the oltp_point shape; then, as columns/…, the same groups'
// column group, GroupColumns into ColumnGroup, as an access path and an
// archive lookup name it.
func BenchmarkPredicateGroup(b *testing.B) {
	for _, c := range []struct {
		name  string
		preds []Predicate
	}{
		{"preds=1", []Predicate{{Column: "id", Op: OpEQ, Value: value.NewInt(1729)}}},
		{"preds=3", []Predicate{
			{Column: "year", Op: OpBetween, Lo: value.NewInt(1995), Hi: value.NewInt(2004)},
			{Column: "make", Op: OpEQ, Value: value.NewString("Toyota")},
			{Column: "model", Op: OpIn, Values: []value.Datum{value.NewString("Camry"), value.NewString("Corolla")}},
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchName = PredicateGroup("car", c.preds)
			}
		})
		b.Run("columns/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchName = ColumnGroup("car", GroupColumns(c.preds))
			}
		})
	}
}

var benchName StatName
