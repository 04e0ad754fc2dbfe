package value

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "null",
		KindInt:    "int",
		KindFloat:  "float",
		KindString: "string",
		Kind(99):   "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if d := NewInt(42); d.Kind() != KindInt || d.Int() != 42 {
		t.Errorf("NewInt round trip failed: %v", d)
	}
	if d := NewFloat(2.5); d.Kind() != KindFloat || d.Float() != 2.5 {
		t.Errorf("NewFloat round trip failed: %v", d)
	}
	if d := NewString("abc"); d.Kind() != KindString || d.Str() != "abc" {
		t.Errorf("NewString round trip failed: %v", d)
	}
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Errorf("Null is not null: %v", Null)
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on string", func() { NewString("x").Int() })
	mustPanic("Float on int", func() { NewInt(1).Float() })
	mustPanic("Str on float", func() { NewFloat(1).Str() })
}

func TestAsFloat(t *testing.T) {
	if v, ok := NewInt(7).AsFloat(); !ok || v != 7 {
		t.Errorf("AsFloat(int) = %v, %v", v, ok)
	}
	if v, ok := NewFloat(1.5).AsFloat(); !ok || v != 1.5 {
		t.Errorf("AsFloat(float) = %v, %v", v, ok)
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("AsFloat(string) should fail")
	}
	if _, ok := Null.AsFloat(); ok {
		t.Error("AsFloat(null) should fail")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		d    Datum
		want string
	}{
		{Null, "NULL"},
		{NewInt(-3), "-3"},
		{NewFloat(2.5), "2.5"},
		{NewString("it's"), "'it''s'"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestCompareTotalOrder(t *testing.T) {
	// An ordered ladder; every element must sort strictly before the next.
	ladder := []Datum{
		Null,
		NewInt(-10),
		NewFloat(-1.5),
		NewInt(0),
		NewFloat(0.5),
		NewInt(1),
		NewInt(2),
		NewFloat(1e18),
		NewString(""),
		NewString("a"),
		NewString("ab"),
		NewString("b"),
	}
	for i := range ladder {
		for j := range ladder {
			got := ladder[i].Compare(ladder[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ladder[i], ladder[j], got, want)
			}
		}
	}
}

func TestCompareIntFloatMixed(t *testing.T) {
	if NewInt(3).Compare(NewFloat(3.0)) != 0 {
		t.Error("int 3 should equal float 3.0")
	}
	if NewInt(3).Compare(NewFloat(3.5)) != -1 {
		t.Error("int 3 should sort before float 3.5")
	}
	// Huge ints must compare exactly, not through lossy float64.
	a, b := NewInt(1<<62), NewInt(1<<62+1)
	if a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Error("large int comparison lost precision")
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Null.Equal(Null) {
		t.Error("NULL = NULL must be false (SQL semantics)")
	}
	if Null.Equal(NewInt(0)) || NewInt(0).Equal(Null) {
		t.Error("NULL never equals a value")
	}
	if !NewInt(5).Equal(NewFloat(5)) {
		t.Error("5 should equal 5.0")
	}
}

func TestCoordOrderPreserving(t *testing.T) {
	if !math.IsInf(Null.Coord(), -1) {
		t.Error("NULL coordinate must be -Inf")
	}
	if NewInt(5).Coord() != 5 || NewFloat(2.5).Coord() != 2.5 {
		t.Error("numeric coordinates must be identity")
	}
	words := []string{"", "Audi", "BMW", "Toyota", "Toyotb", "zz"}
	for i := 0; i+1 < len(words); i++ {
		a, b := StringCoord(words[i]), StringCoord(words[i+1])
		if !(a < b) {
			t.Errorf("StringCoord(%q)=%v not < StringCoord(%q)=%v", words[i], a, words[i+1], b)
		}
	}
}

func TestStringCoordPrefixCollision(t *testing.T) {
	// Beyond 6 bytes the coordinate collapses; that is documented behaviour.
	a := StringCoord("abcdef-one")
	b := StringCoord("abcdef-two")
	if a != b {
		t.Errorf("expected identical coords for same 6-byte prefix, got %v vs %v", a, b)
	}
}

func TestStringCoordAdjacencyUnit(t *testing.T) {
	// Distinct 6-byte prefixes differ by at least 1 in coordinate space, so
	// [coord, coord+1) is a valid equality box.
	a := StringCoord("abcdef")
	b := StringCoord("abcdeg")
	if b-a < 1 {
		t.Errorf("adjacent prefixes differ by %v, want >= 1", b-a)
	}
	if a+1 > b {
		t.Errorf("equality box [%v,%v) would overlap next prefix at %v", a, a+1, b)
	}
}

func TestParseLiteral(t *testing.T) {
	cases := []struct {
		text     string
		isString bool
		want     Datum
		wantErr  bool
	}{
		{"42", false, NewInt(42), false},
		{"-7", false, NewInt(-7), false},
		{"2.5", false, NewFloat(2.5), false},
		{"1e3", false, NewFloat(1000), false},
		{"NULL", false, Null, false},
		{"hello", true, NewString("hello"), false},
		{"42", true, NewString("42"), false},
		{"not-a-number", false, Null, true},
	}
	for _, c := range cases {
		got, err := ParseLiteral(c.text, c.isString)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseLiteral(%q) error = %v, wantErr %v", c.text, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("ParseLiteral(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

// Property: Compare is antisymmetric and consistent with sort ordering.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		da, db := NewInt(a), NewInt(b)
		return da.Compare(db) == -db.Compare(da)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: StringCoord preserves the order of arbitrary strings whenever
// their first 6 bytes differ.
func TestStringCoordOrderProperty(t *testing.T) {
	f := func(a, b string) bool {
		pa, pb := a, b
		if len(pa) > 6 {
			pa = pa[:6]
		}
		if len(pb) > 6 {
			pb = pb[:6]
		}
		if pa == pb {
			return true // collision allowed
		}
		ca, cb := StringCoord(a), StringCoord(b)
		if pa < pb {
			return ca < cb
		}
		return ca > cb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: sorting datums by Compare yields a sequence where Coord is
// monotonically non-decreasing within a kind.
func TestCoordMonotoneWithinKindProperty(t *testing.T) {
	f := func(vals []int64) bool {
		ds := make([]Datum, len(vals))
		for i, v := range vals {
			ds[i] = NewInt(v)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i].Compare(ds[j]) < 0 })
		for i := 0; i+1 < len(ds); i++ {
			if ds[i].Coord() > ds[i+1].Coord() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkStringCoord(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = StringCoord("Toyota Camry")
	}
}
