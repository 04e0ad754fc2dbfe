package engine_test

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparser"
	"repro/internal/value"
)

// The oracle: a SELECT evaluated straight off the parsed statement by nested
// loops over storage rows, sharing nothing with the engine beyond the parser
// and the storage scan — no QGM, optimizer, index, predicate kernel, vector
// or executor, and no call into value's Compare, Order or Key. It states the
// dialect's semantics from scratch: a comparison with NULL is not true, NULL
// joins nothing, NULLs form one group and sort first; any number sorts before
// any string; numbers compare by their exact value (an int against a float as
// the reals they are, through math/big, so 2^53+1 is above 2^53.0), −0 is +0,
// and NaN is a number equal to itself and above every other — one value,
// one group, one join key, last in ORDER BY, the MAX of a column that has it;
// strings compare bytewise; col IN (SELECT …) holds when col equals some row
// of the subquery; COUNT(*) counts rows, COUNT(c) non-NULL values, SUM of ints
// is an int, of floats a float, of nothing NULL, AVG is SUM/COUNT as a float,
// MIN and MAX skip NULLs, an aggregate without GROUP BY over no rows is one
// row.
type oracleRow struct {
	out  []value.Datum // the projected row
	keys []value.Datum // its ORDER BY key values
}

// oracleCmp is the three-way comparison that orders values: NULL first,
// then numbers, then strings.
func oracleCmp(a, b value.Datum) int {
	rank := func(d value.Datum) int {
		return [...]int{value.KindNull: 0, value.KindInt: 1, value.KindFloat: 1, value.KindString: 2}[d.Kind()]
	}
	switch {
	case rank(a) != rank(b):
		return cmp.Compare(rank(a), rank(b))
	case a.Kind() == value.KindNull:
		return 0
	case a.Kind() == value.KindString:
		return strings.Compare(a.Str(), b.Str())
	}
	// Two numbers. −Inf, the finite ones, +Inf, NaN — in that order, and two
	// of one class other than finite are equal.
	class := func(d value.Datum) int {
		switch f, _ := d.AsFloat(); {
		case d.Kind() == value.KindInt:
			return 0
		case math.IsNaN(f):
			return 2
		case math.IsInf(f, 0):
			return int(math.Copysign(1, f))
		default:
			return 0
		}
	}
	switch {
	case class(a) != class(b) || class(a) != 0:
		return cmp.Compare(class(a), class(b))
	case a.Kind() == value.KindInt && b.Kind() == value.KindInt:
		return cmp.Compare(a.Int(), b.Int())
	case a.Kind() == value.KindFloat && b.Kind() == value.KindFloat:
		return cmp.Compare(a.Float(), b.Float())
	}
	// An int against a finite float: as the exact rationals they are.
	real := func(d value.Datum) *big.Rat {
		if d.Kind() == value.KindInt {
			return new(big.Rat).SetInt64(d.Int())
		}
		return new(big.Rat).SetFloat64(d.Float())
	}
	return real(a).Cmp(real(b))
}

// oracleOps: which outcomes of oracleCmp (below, equal, above) satisfy an
// operator.
var oracleOps = map[sqlparser.CompareOp][3]bool{
	sqlparser.OpEQ: {false, true, false}, sqlparser.OpNE: {true, false, true},
	sqlparser.OpLT: {true, false, false}, sqlparser.OpLE: {true, true, false},
	sqlparser.OpGT: {false, false, true}, sqlparser.OpGE: {false, true, true},
}

// oracleHolds evaluates `a op b`; anything compared with NULL is not true.
func oracleHolds(a value.Datum, op sqlparser.CompareOp, b value.Datum) bool {
	return !a.IsNull() && !b.IsNull() && oracleOps[op][oracleCmp(a, b)+1]
}

// oracleRowKey renders a row so that equal rows render equally: −0 as 0,
// every NaN alike, ints and floats apart (5 is not 5.0 in a result, and a
// column holds one kind).
func oracleRowKey(row []value.Datum) string {
	parts := make([]string, len(row))
	for i, d := range row {
		if parts[i] = d.String(); d.Kind() == value.KindFloat {
			parts[i] = fmt.Sprintf("f%v", d.Float()+0)
		}
	}
	return strings.Join(parts, "\x00")
}

// oracleSource hands the oracle a table: its column names and its rows in
// storage order, in a slice the oracle may reorder. The read arm scans the
// engine's storage; the write arm (oracle_write_test.go) reads the oracle's
// own model.
type oracleSource func(table string) (names []string, rows [][]value.Datum)

// engineTables is the source that scans the engine's tables as they are now.
func engineTables(e *engine.Engine) oracleSource {
	return func(table string) (names []string, rows [][]value.Datum) {
		tbl, _ := e.DB().Table(table)
		for _, c := range tbl.Schema().Columns() {
			names = append(names, c.Name)
		}
		tbl.Snapshot().Scan(func(_ int, row []value.Datum) bool {
			rows = append(rows, row)
			return true
		})
		return names, rows
	}
}

// oracleLiteralTest reads a conjunct that compares one column with values
// known before the loops start — col op v, col BETWEEN lo AND hi, col IN
// (v, …), col IN (SELECT …), the subquery evaluated here by the oracle itself
// — as the column and a test of its value; ok is false for a comparison of
// two columns.
func oracleLiteralTest(t testing.TB, src oracleSource, expr sqlparser.Expr) (col sqlparser.ColumnRef, test func(d value.Datum) bool, ok bool) {
	// col ops[i] vals[i] for every i, or — IN — col = vals[i] for some i.
	var ops []sqlparser.CompareOp
	var vals []value.Datum
	switch x := expr.(type) {
	case *sqlparser.Comparison:
		if x.RightIsCol {
			return col, nil, false
		}
		col, ops, vals = x.Left, []sqlparser.CompareOp{x.Op}, []value.Datum{x.RightVal}
	case *sqlparser.Between:
		col, ops, vals = x.Col, []sqlparser.CompareOp{sqlparser.OpGE, sqlparser.OpLE}, []value.Datum{x.Lo, x.Hi}
	case *sqlparser.InList:
		col, vals = x.Col, x.Values
	case *sqlparser.InSubquery:
		col = x.Col
		for _, row := range oracleEval(t, src, x.Select) {
			vals = append(vals, row.out[0])
		}
	default:
		t.Fatalf("oracle: unsupported predicate %T", expr)
	}
	some := ops == nil
	return col, func(d value.Datum) bool {
		for i, v := range vals {
			op := sqlparser.OpEQ
			if !some {
				op = ops[i]
			}
			if oracleHolds(d, op, v) == some {
				return some
			}
		}
		return !some
	}, true
}

// oracleSelect evaluates sql against the tables src hands out.
func oracleSelect(t testing.TB, src oracleSource, sql string) []oracleRow {
	t.Helper()
	return oracleEval(t, src, mustParseSelect(t, sql))
}

func oracleEval(t testing.TB, src oracleSource, sel *sqlparser.SelectStmt) []oracleRow {
	t.Helper()
	// Per FROM table: alias, column names, rows, offset in a joined row.
	var aliases []string
	var cols [][]string
	var rows [][][]value.Datum
	var offs []int
	width := 0
	for _, ref := range sel.From {
		names, scanned := src(ref.Table)
		aliases, cols, rows, offs = append(aliases, ref.Alias), append(cols, names), append(rows, scanned), append(offs, width)
		width += len(names)
	}
	// resolve returns a column's position in a joined row and its table.
	resolve := func(ref sqlparser.ColumnRef) (pos, table int) {
		pos = -1
		for ti := range cols {
			for ci, name := range cols[ti] {
				if name == ref.Column && (ref.Qualifier == "" || ref.Qualifier == aliases[ti]) {
					pos, table = offs[ti]+ci, ti
				}
			}
		}
		return pos, table // -1: no such column
	}
	// Each conjunct becomes a test on the joined row. One that reads a single
	// table thins that table's rows before the loops start; one that compares
	// two tables runs at the depth where the second of them is bound.
	tests := make([][]func(row []value.Datum) bool, len(rows))
	for _, expr := range sel.Where {
		col, test, literal := oracleLiteralTest(t, src, expr)
		if !literal {
			x := expr.(*sqlparser.Comparison)
			l, lt := resolve(x.Left)
			r, rt := resolve(x.RightCol)
			tests[max(lt, rt)] = append(tests[max(lt, rt)], func(row []value.Datum) bool { return oracleHolds(row[l], x.Op, row[r]) })
			continue
		}
		c, depth := resolve(col)
		rows[depth] = slices.DeleteFunc(rows[depth], func(r []value.Datum) bool { return !test(r[c-offs[depth]]) })
	}
	var joined [][]value.Datum
	row := make([]value.Datum, width) // the loops bind tables into it left to right
	var loop func(depth int)
	loop = func(depth int) {
		if depth == len(rows) {
			joined = append(joined, append([]value.Datum(nil), row...))
			return
		}
		for _, r := range rows[depth] {
			copy(row[offs[depth]:], r)
			if !slices.ContainsFunc(tests[depth], func(test func([]value.Datum) bool) bool { return !test(row) }) {
				loop(depth + 1)
			}
		}
	}
	loop(0)
	// Groups, in order of first appearance: under aggregation the joined rows
	// that agree on the GROUP BY columns (one empty group when there is no
	// GROUP BY and no row); otherwise every row is a group of its own.
	aggregated := len(sel.GroupBy) > 0 || slices.ContainsFunc(sel.Projections, func(pe sqlparser.SelectExpr) bool {
		return pe.Agg != sqlparser.AggNone
	})
	var groups [][][]value.Datum
	byKey := map[string]int{}
	for _, jr := range joined {
		var key []value.Datum
		for _, g := range sel.GroupBy {
			pos, _ := resolve(g)
			key = append(key, jr[pos])
		}
		gi, seen := byKey[oracleRowKey(key)]
		if !seen || !aggregated {
			gi = len(groups)
			byKey[oracleRowKey(key)] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], jr)
	}
	if aggregated && len(sel.GroupBy) == 0 && len(groups) == 0 {
		groups = [][][]value.Datum{nil}
	}
	// Output columns, SELECT * expanded, each a function of a group; an
	// ORDER BY name is an output column's alias first, a table column second.
	type output struct {
		name string
		agg  sqlparser.AggKind // AggNone: the column at pos of the group's rows
		pos  int               // < 0: COUNT(*)
	}
	var outs []output
	for _, pe := range sel.Projections {
		if pe.Star && pe.Agg == sqlparser.AggNone {
			for ti := range cols {
				for ci, name := range cols[ti] {
					outs = append(outs, output{aliases[ti] + "." + name, pe.Agg, offs[ti] + ci})
				}
			}
			continue
		}
		oc := output{pe.Alias, pe.Agg, -1}
		if !pe.Star {
			oc.pos, _ = resolve(pe.Col)
		}
		if oc.name == "" && pe.Agg == sqlparser.AggNone {
			oc.name = pe.Col.Column
		}
		outs = append(outs, oc)
	}
	var res []oracleRow
	seen := map[string]bool{}
	for _, group := range groups {
		r := oracleRow{out: make([]value.Datum, len(outs))}
		for i, oc := range outs {
			if r.out[i] = oracleAggregate(oc.agg, oc.pos, group); oc.agg == sqlparser.AggNone {
				r.out[i] = group[0][oc.pos]
			}
		}
		for _, oi := range sel.OrderBy {
			if i := slices.IndexFunc(outs, func(oc output) bool { return oi.Col.Qualifier == "" && oc.name == oi.Col.Column }); i >= 0 {
				r.keys = append(r.keys, r.out[i])
			} else {
				pos, _ := resolve(oi.Col)
				r.keys = append(r.keys, group[0][pos])
			}
		}
		if k := oracleRowKey(r.out); !sel.Distinct || !seen[k] { // DISTINCT keeps first appearances
			seen[k] = true
			res = append(res, r)
		}
	}
	sort.SliceStable(res, func(a, b int) bool {
		for k, oi := range sel.OrderBy {
			if c := oracleCmp(res[a].keys[k], res[b].keys[k]); c != 0 {
				return (c > 0) == oi.Desc
			}
		}
		return false
	})
	return res
}

// oracleAggregate computes one aggregate over a group's joined rows;
// pos < 0 is COUNT(*).
func oracleAggregate(agg sqlparser.AggKind, pos int, rows [][]value.Datum) value.Datum {
	var vals []value.Datum
	for _, row := range rows {
		if pos >= 0 && !row[pos].IsNull() {
			vals = append(vals, row[pos])
		}
	}
	switch {
	case pos < 0:
		return value.NewInt(int64(len(rows)))
	case agg == sqlparser.AggCount:
		return value.NewInt(int64(len(vals)))
	case len(vals) == 0:
		return value.Null
	case agg == sqlparser.AggMin || agg == sqlparser.AggMax:
		best := vals[0]
		for _, v := range vals[1:] {
			if c := oracleCmp(v, best); (agg == sqlparser.AggMin && c < 0) || (agg == sqlparser.AggMax && c > 0) {
				best = v
			}
		}
		return best
	}
	isum, fsum, ints := int64(0), 0.0, true
	for _, v := range vals { // the statements sum numbers only
		f, _ := v.AsFloat()
		fsum += f
		if ints = ints && v.Kind() == value.KindInt; ints {
			isum += v.Int()
		}
	}
	if agg == sqlparser.AggAvg {
		return value.NewFloat(fsum / float64(len(vals)))
	} else if ints {
		return value.NewInt(isum)
	}
	return value.NewFloat(fsum)
}
