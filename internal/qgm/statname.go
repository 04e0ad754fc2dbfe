package qgm

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// StatKind says what a StatName names.
type StatKind uint8

const (
	StatColumnGroup    StatKind = iota + 1 // table(c1,c2): a distribution over columns — an archive grid, a catalog histogram
	StatPredicateGroup                     // table{p1 AND p2}: one predicate group's observed selectivity — a memo entry
	StatDefault                            // default(table.column): the optimizer guessed
)

const defaultPrefix = "default("

// StatName is the name of one statistic: what an estimate's statlist records,
// the StatHistory keys on and the archive files store. This file is the only
// place its text is written or read: the constructors render it once, and
// Table and Body slice it at offsets recorded then, so nothing downstream
// parses a name back. A StatName is comparable; names order by their text.
// The zero StatName names nothing.
type StatName struct {
	text  string
	kind  StatKind
	table int32 // len(table)
}

// ColumnGroup names the statistic over columns of table — the paper's
// "colgrp". The columns are sorted, so {make, model} and {model, make} are
// the same group.
func ColumnGroup(table string, columns []string) StatName {
	cols := slices.Clone(columns)
	sort.Strings(cols)
	return StatName{table + "(" + strings.Join(cols, ",") + ")", StatColumnGroup, int32(len(table))}
}

// PredicateGroup names one specific predicate group — columns, operators
// and values — order-insensitively across predicates.
func PredicateGroup(table string, preds []Predicate) StatName {
	var buf [256]byte
	return StatName{string(appendPredicateGroup(buf[:0], table, preds)), StatPredicateGroup, int32(len(table))}
}

// appendPredicateGroup appends the text of PredicateGroup(table, preds) to
// dst. Each predicate is rendered once into dst's tail; the parts are sorted
// as offsets into it, and the name is written after them and moved down over
// them.
func appendPredicateGroup(dst []byte, table string, preds []Predicate) []byte {
	base := len(dst)
	var partsBuf [8][2]int
	parts := partsBuf[:0]
	for _, p := range preds {
		start := len(dst)
		dst = p.AppendText(dst)
		parts = append(parts, [2]int{start, len(dst)})
	}
	slices.SortFunc(parts, func(a, b [2]int) int {
		return bytes.Compare(dst[a[0]:a[1]], dst[b[0]:b[1]])
	})
	name := len(dst)
	dst = append(dst, table...)
	dst = append(dst, '{')
	for i, pt := range parts {
		if i > 0 {
			dst = append(dst, " AND "...)
		}
		dst = append(dst, dst[pt[0]:pt[1]]...)
	}
	dst = append(dst, '}')
	return append(dst[:base], dst[name:]...)
}

// DefaultStat names the optimizer's guess for one column.
func DefaultStat(table, column string) StatName {
	return StatName{defaultPrefix + table + "." + column + ")", StatDefault, int32(len(table))}
}

// ParseStatName reads a name back from its text, for names that arrive from
// outside the process (archive files); code that built a name keeps it.
func ParseStatName(text string) (StatName, error) {
	kind, off, open, closer := StatColumnGroup, 0, "(", byte(')')
	switch i := strings.IndexAny(text, "({"); {
	case strings.HasPrefix(text, defaultPrefix):
		kind, off, open = StatDefault, len(defaultPrefix), "."
	case i >= 0 && text[i] == '{':
		kind, open, closer = StatPredicateGroup, "{", '}'
	}
	table := strings.Index(text[off:], open)
	if table <= 0 || text[len(text)-1] != closer {
		return StatName{}, fmt.Errorf("qgm: malformed statistic name %q", text)
	}
	return StatName{text, kind, int32(table)}, nil
}

// Kind reports what the name names; 0 for the zero StatName.
func (n StatName) Kind() StatKind { return n.kind }

// String returns the canonical text.
func (n StatName) String() string { return n.text }

// IsZero reports whether n names nothing.
func (n StatName) IsZero() bool { return n.text == "" }

// Compare orders names by their text.
func (n StatName) Compare(o StatName) int { return strings.Compare(n.text, o.text) }

// rest is the text from the table on.
func (n StatName) rest() string {
	if n.kind == StatDefault {
		return n.text[len(defaultPrefix):]
	}
	return n.text
}

// Table returns the table the statistic is on.
func (n StatName) Table() string { return n.rest()[:n.table] }

// Body returns what follows the table: the comma-joined sorted columns, the
// " AND "-joined sorted predicates, or the guessed column.
func (n StatName) Body() string {
	if n.kind == 0 {
		return ""
	}
	return n.rest()[n.table+1 : len(n.rest())-1]
}

// ColumnGroupKey is ColumnGroup(table, columns).String().
func ColumnGroupKey(table string, columns []string) string {
	return ColumnGroup(table, columns).String()
}

// PredicateGroupKey is PredicateGroup(table, preds).String(); it keys the
// per-query selectivity cache filled by statistics collection.
func PredicateGroupKey(table string, preds []Predicate) string {
	return PredicateGroup(table, preds).String()
}
