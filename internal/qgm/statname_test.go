package qgm

import (
	"slices"
	"testing"

	"repro/internal/value"
)

// TestStatNameGrammar: the three kinds render the texts the archive files and
// the StatHistory have always held, take apart without parsing, read back from
// their text to the same name, and order by that text.
func TestStatNameGrammar(t *testing.T) {
	eq := Predicate{Column: "make", Op: OpEQ, Value: value.NewString("a(b{c")}
	gt := Predicate{Column: "year", Op: OpGT, Value: value.NewInt(2000)}
	cases := []struct {
		name              StatName
		kind              StatKind
		text, table, body string
	}{
		{ColumnGroup("car", []string{"year"}), StatColumnGroup, "car(year)", "car", "year"},
		{ColumnGroup("car", []string{"model", "make"}), StatColumnGroup, "car(make,model)", "car", "make,model"},
		{PredicateGroup("car", []Predicate{gt, eq}), StatPredicateGroup,
			"car{" + eq.String() + " AND " + gt.String() + "}", "car", eq.String() + " AND " + gt.String()},
		{DefaultStat("car", "year"), StatDefault, "default(car.year)", "car", "year"},
	}
	for _, c := range cases {
		if c.name.Kind() != c.kind || c.name.String() != c.text || c.name.Table() != c.table || c.name.Body() != c.body {
			t.Errorf("%q: kind %d table %q body %q, want %d %q %q (text %q)",
				c.name, c.name.Kind(), c.name.Table(), c.name.Body(), c.kind, c.table, c.body, c.text)
		}
		back, err := ParseStatName(c.text)
		if err != nil || back != c.name {
			t.Errorf("ParseStatName(%q) = %#v, %v; want the name that rendered it", c.text, back, err)
		}
	}
	if ColumnGroupKey("car", []string{"model", "make"}) != "car(make,model)" ||
		PredicateGroupKey("car", []Predicate{gt}) != "car{"+gt.String()+"}" {
		t.Error("the string-keyed forms must be the names' texts")
	}
	for _, bad := range []string{"", "nonsense", "(x)", "car(year", "{p}", "car{p)", "default(", "default(.x)", "default(car)"} {
		if n, err := ParseStatName(bad); err == nil {
			t.Errorf("ParseStatName(%q) = %#v, want an error", bad, n)
		}
	}
	var zero StatName
	if !zero.IsZero() || zero.Kind() != 0 || zero.Table() != "" || zero.Body() != "" || zero.String() != "" {
		t.Errorf("zero name = %#v", zero)
	}

	// A statlist sorts as its texts do.
	list := []StatName{DefaultStat("car", "year"), ColumnGroup("car", []string{"year"}), ColumnGroup("car", []string{"make"})}
	slices.SortFunc(list, StatName.Compare)
	texts := make([]string, len(list))
	for i, n := range list {
		texts[i] = n.String()
	}
	if !slices.IsSorted(texts) || texts[0] != "car(make)" || texts[2] != "default(car.year)" {
		t.Errorf("sorted statlist = %v", texts)
	}
}
