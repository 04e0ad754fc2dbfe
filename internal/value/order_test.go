package value

import (
	"bytes"
	"cmp"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"
)

// orderCorpus holds the values the order has to get right: NULL, both
// zeros, the infinities, NaN under two payloads, the integers around 2^53
// where float64 runs out of them — as ints and as floats — the int64 extremes
// beside the floats they round to, a fraction next to zero, and strings down
// to the empty and the non-UTF-8.
var orderCorpus = []Datum{
	Null,
	NewInt(0), NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(0.1), NewFloat(-0.1),
	NewInt(1), NewFloat(1), NewInt(-3), NewFloat(0.5), NewInt(5), NewFloat(5),
	NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
	NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7FF8000000000001)), NewFloat(math.Float64frombits(0xFFF0000000000F00)),
	NewInt(1<<53 - 1), NewInt(1 << 53), NewInt(1<<53 + 1), NewInt(1<<53 + 2),
	NewFloat(1<<53 - 1), NewFloat(1 << 53), NewFloat(1<<53 + 2),
	NewInt(-(1 << 53)), NewInt(-(1<<53 + 1)), NewFloat(-(1 << 53)),
	NewInt(math.MaxInt64), NewInt(math.MaxInt64 - 1), NewInt(math.MinInt64), NewInt(math.MinInt64 + 1),
	NewFloat(1 << 63), NewFloat(-(1 << 63)), NewFloat(math.Nextafter(1<<63, 0)), NewFloat(1e300),
	NewString(""), NewString("a"), NewString("ab"), NewString("b"), NewString("\xff\xfe"), NewString("\x00"), NewString("5"),
}

// refCompare is the order restated with no code in common with Compare:
// kinds by rank, numbers classed −Inf < finite < +Inf < NaN and the finite
// ones compared as exact rationals, strings by bytes.
func refCompare(a, b Datum) int {
	rank := func(d Datum) int { return [...]int{KindNull: 0, KindInt: 1, KindFloat: 1, KindString: 2}[d.Kind()] }
	switch {
	case rank(a) != rank(b):
		return cmp.Compare(rank(a), rank(b))
	case a.IsNull():
		return 0
	case a.Kind() == KindString:
		return bytes.Compare([]byte(a.Str()), []byte(b.Str()))
	}
	real := func(d Datum) (*big.Rat, int) {
		if d.Kind() == KindInt {
			return new(big.Rat).SetInt64(d.Int()), 0
		}
		switch f := d.Float(); {
		case math.IsNaN(f):
			return nil, 2
		case math.IsInf(f, 0):
			return nil, int(math.Copysign(1, f))
		default:
			return new(big.Rat).SetFloat64(f), 0
		}
	}
	ar, ac := real(a)
	br, bc := real(b)
	if ac != bc || ac != 0 {
		return cmp.Compare(ac, bc)
	}
	return ar.Cmp(br)
}

// checkOrder holds three datums to everything the package promises: Compare
// agrees with the reference and is reflexive, antisymmetric and transitive;
// the key — as a comparable value, as bytes, as a hash — is equal exactly when
// Compare is 0; the typed compares say what Compare says.
func checkOrder(t testing.TB, a, b, c Datum) {
	t.Helper()
	ab, bc, ac := a.Compare(b), b.Compare(c), a.Compare(c)
	if want := refCompare(a, b); ab != want {
		t.Fatalf("Compare(%v, %v) = %d, reference %d", a, b, ab, want)
	}
	if a.Compare(a) != 0 {
		t.Fatalf("Compare(%v, %v) != 0", a, a)
	}
	if ba := b.Compare(a); ab != -ba {
		t.Fatalf("Compare(%v, %v) = %d but reversed %d", a, b, ab, ba)
	}
	if ab <= 0 && bc <= 0 && (ac > 0 || (ac == 0) != (ab == 0 && bc == 0)) {
		t.Fatalf("not transitive: %v vs %v = %d, %v vs %v = %d, but %v vs %v = %d", a, b, ab, b, c, bc, a, c, ac)
	}
	if a.Equal(b) != (ab == 0 && !a.IsNull()) {
		t.Fatalf("Equal(%v, %v) = %v, Compare %d", a, b, a.Equal(b), ab)
	}

	ka, kb := a.Key(), b.Key()
	if (ka == kb) != (ab == 0) {
		t.Fatalf("keys of %v and %v equal = %v, Compare %d", a, b, ka == kb, ab)
	}
	if bytes.Equal(ka.AppendTo(nil), kb.AppendTo(nil)) != (ab == 0) {
		t.Fatalf("key bytes of %v and %v: %q / %q, Compare %d", a, b, ka.AppendTo(nil), kb.AppendTo(nil), ab)
	}
	if ab == 0 && ka.Hash() != kb.Hash() {
		t.Fatalf("equal %v and %v hash apart", a, b)
	}
	// Keys delimit themselves: a's bytes followed by b's parse back as the two.
	if joined, split := kb.AppendTo(ka.AppendTo(nil)), len(ka.AppendTo(nil)); !bytes.Equal(joined[split:], kb.AppendTo(nil)) {
		t.Fatalf("key bytes of %v then %v do not split at %d: %q", a, b, split, joined)
	}

	typed := ab
	switch {
	case a.Kind() == KindInt && b.Kind() == KindInt:
		typed = Order(a.Int(), b.Int())
	case a.Kind() == KindFloat && b.Kind() == KindFloat:
		typed = Order(a.Float(), b.Float())
	case a.Kind() == KindString && b.Kind() == KindString:
		typed = Order(a.Str(), b.Str())
	case a.Kind() == KindInt && b.Kind() == KindFloat:
		typed = OrderIntFloat(a.Int(), b.Float())
	case a.Kind() == KindFloat && b.Kind() == KindInt:
		typed = -OrderIntFloat(b.Int(), a.Float())
	}
	if typed != ab {
		t.Fatalf("typed compare of %v and %v = %d, Compare %d", a, b, typed, ab)
	}
}

func TestOrderIsAnOrder(t *testing.T) {
	for _, a := range orderCorpus {
		for _, b := range orderCorpus {
			for _, c := range orderCorpus {
				checkOrder(t, a, b, c)
			}
		}
	}
	// The pins the rest of the engine is written against.
	for _, pin := range []struct {
		a, b Datum
		want int
	}{
		{NewInt(1<<53 + 1), NewFloat(1 << 53), 1},
		{NewInt(1 << 53), NewFloat(1 << 53), 0},
		{NewInt(math.MaxInt64), NewFloat(1 << 63), -1},
		{NewInt(math.MinInt64), NewFloat(-(1 << 63)), 0},
		{NewFloat(math.NaN()), NewFloat(math.Inf(1)), 1},
		{NewFloat(math.NaN()), NewInt(math.MaxInt64), 1},
		{NewFloat(math.NaN()), NewString(""), -1},
		{NewFloat(math.NaN()), NewFloat(math.Float64frombits(0xFFF0000000000F00)), 0},
		{NewFloat(math.Copysign(0, -1)), NewInt(0), 0},
		{NewFloat(0.1), NewInt(0), 1},
		{Null, NewFloat(math.Inf(-1)), -1},
	} {
		if got := pin.a.Compare(pin.b); got != pin.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", pin.a, pin.b, got, pin.want)
		}
	}
	// Sorting by Compare is what ORDER BY does: the issue's column.
	f := []Datum{NewFloat(math.NaN()), NewFloat(1), NewFloat(-3), NewFloat(math.NaN()), NewFloat(5), NewFloat(0.5)}
	slices.SortStableFunc(f, Datum.Compare)
	var got []string
	for _, d := range f {
		got = append(got, d.String())
	}
	if s := strings.Join(got, " "); s != "-3 0.5 1 5 NaN NaN" {
		t.Errorf("sorted: %s", s)
	}
}

// FuzzValueOrder: three arbitrary datums are held to checkOrder.
func FuzzValueOrder(f *testing.F) {
	f.Add(byte(1), int64(1<<53+1), 0.0, "", byte(2), int64(0), float64(1<<53), "", byte(2), int64(0), math.NaN(), "")
	f.Add(byte(3), int64(0), 0.0, "a", byte(3), int64(0), 0.0, "", byte(0), int64(0), 0.0, "")
	f.Add(byte(2), int64(0), math.Copysign(0, -1), "", byte(1), int64(0), 0.0, "", byte(2), int64(0), 0.1, "")
	f.Add(byte(1), int64(math.MaxInt64), 0.0, "", byte(2), int64(0), float64(1<<63), "", byte(2), int64(0), math.Inf(1), "")
	datum := func(kind byte, i int64, f float64, s string) Datum {
		switch Kind(kind % 4) {
		case KindInt:
			return NewInt(i)
		case KindFloat:
			return NewFloat(f)
		case KindString:
			return NewString(s)
		}
		return Null
	}
	f.Fuzz(func(t *testing.T, k1 byte, i1 int64, f1 float64, s1 string, k2 byte, i2 int64, f2 float64, s2 string, k3 byte, i3 int64, f3 float64, s3 string) {
		a, b, c := datum(k1, i1, f1, s1), datum(k2, i2, f2, s2), datum(k3, i3, f3, s3)
		checkOrder(t, a, b, c)
		checkOrder(t, c, a, b)
		checkOrder(t, b, c, a)
	})
}

var compareSink int

func benchmarkCompare(b *testing.B, x, y Datum) {
	for i := 0; i < b.N; i++ {
		compareSink += x.Compare(y)
	}
}

func BenchmarkCompareInt(b *testing.B)      { benchmarkCompare(b, NewInt(12345), NewInt(54321)) }
func BenchmarkCompareFloat(b *testing.B)    { benchmarkCompare(b, NewFloat(12345.5), NewFloat(54321.25)) }
func BenchmarkCompareIntFloat(b *testing.B) { benchmarkCompare(b, NewInt(12345), NewFloat(12345.5)) }
func BenchmarkCompareString(b *testing.B) {
	benchmarkCompare(b, NewString("Toyota Camry"), NewString("Toyota Corolla"))
}
