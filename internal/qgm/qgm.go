// Package qgm implements the Query Graph Model — the engine's internal
// representation of a query after parsing and rewrite, mirroring the role
// QGM plays in Starburst/DB2 for the paper's prototype ("the prototype uses
// the Query Graph Model to analyze the query structure").
//
// A Query holds one or more Blocks. Each block is an SPJ unit: a list of
// table instances, the local predicates attached to each instance, the
// (equality) join predicates connecting instances, and the projection /
// grouping / ordering spec. JITS's query-analysis algorithm walks blocks and
// enumerates predicate groups per table instance, so the block exposes local
// predicates already bucketed by table slot.
package qgm

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// SchemaResolver supplies table schemas during name resolution; the storage
// database satisfies it via an adapter in the engine package.
type SchemaResolver interface {
	TableSchema(name string) (*storage.Schema, bool)
}

// PredOp enumerates local-predicate operators.
type PredOp uint8

// Local predicate operators. OpBetween and OpIn come from their SQL forms;
// the comparison subset mirrors sqlparser.CompareOp.
const (
	OpEQ PredOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpBetween
	OpIn
)

// String returns the SQL-ish spelling of the operator.
func (o PredOp) String() string {
	switch o {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpBetween:
		return "BETWEEN"
	case OpIn:
		return "IN"
	default:
		return "?"
	}
}

// TableInstance is one FROM-list entry resolved against the schema.
type TableInstance struct {
	Alias  string
	Table  string
	Schema *storage.Schema
}

// Predicate is a local predicate on a single table instance.
type Predicate struct {
	Slot    int    // table instance it applies to
	Column  string // column name within that table
	Ordinal int    // column position in the table schema
	Op      PredOp
	Value   value.Datum   // EQ/NE/LT/LE/GT/GE operand
	Lo, Hi  value.Datum   // BETWEEN bounds (inclusive)
	Values  []value.Datum // IN list
}

// String renders the predicate for display and for group keys.
func (p Predicate) String() string {
	var buf [64]byte
	return string(p.AppendText(buf[:0]))
}

// AppendText appends the predicate's text to dst: "col op value",
// "col BETWEEN lo AND hi" or "col IN (v1,v2)". The text is a predicate's
// identity — EXPLAIN filters, statistic names and the dedup of repeated
// conjuncts all use it, so a = 1 and a = 1.0 are one predicate.
func (p Predicate) AppendText(dst []byte) []byte {
	dst = append(dst, p.Column...)
	switch p.Op {
	case OpBetween:
		dst = append(dst, " BETWEEN "...)
		dst = p.Lo.AppendText(dst)
		dst = append(dst, " AND "...)
		return p.Hi.AppendText(dst)
	case OpIn:
		dst = append(dst, " IN ("...)
		for i, v := range p.Values {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = v.AppendText(dst)
		}
		return append(dst, ')')
	default:
		dst = append(dst, ' ')
		dst = append(dst, p.Op.String()...)
		dst = append(dst, ' ')
		return p.Value.AppendText(dst)
	}
}

// SameText reports whether p and o render to the same text, without
// allocating for predicates of ordinary length.
func (p Predicate) SameText(o Predicate) bool {
	var a, b [128]byte
	return bytes.Equal(p.AppendText(a[:0]), o.AppendText(b[:0]))
}

// MatchesDatum evaluates the predicate against the value of its column —
// the scalar kernel the compiled form (filter.go) calls per row when no
// typed fast path applies. Comparisons with NULL are false, per SQL. It is
// the single source of truth for predicate semantics; any specialized loop
// must agree with it exactly.
func (p Predicate) MatchesDatum(d value.Datum) bool {
	if d.IsNull() {
		return false
	}
	switch p.Op {
	case OpEQ:
		return d.Equal(p.Value)
	case OpNE:
		return !p.Value.IsNull() && !d.Equal(p.Value)
	case OpLT:
		return !p.Value.IsNull() && d.Compare(p.Value) < 0
	case OpLE:
		return !p.Value.IsNull() && d.Compare(p.Value) <= 0
	case OpGT:
		return !p.Value.IsNull() && d.Compare(p.Value) > 0
	case OpGE:
		return !p.Value.IsNull() && d.Compare(p.Value) >= 0
	case OpBetween:
		return !p.Lo.IsNull() && !p.Hi.IsNull() &&
			d.Compare(p.Lo) >= 0 && d.Compare(p.Hi) <= 0
	case OpIn:
		for _, v := range p.Values {
			if d.Equal(v) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Interval is the coordinate-space region a predicate constrains, used to
// form histogram constraint boxes. Unbounded ends are ±Inf. HasEq marks an
// equality point-interval.
type Interval struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
}

// Region returns the predicate's coordinate interval and whether the
// predicate is representable as a single interval (boxable). NE and IN are
// not boxable — NE excludes a point, IN is a union of points.
func (p Predicate) Region() (Interval, bool) {
	const inf = 1e308 // effectively unbounded; avoids Inf arithmetic in histograms
	switch p.Op {
	case OpEQ:
		c := p.Value.Coord()
		return Interval{Lo: c, Hi: c}, true
	case OpLT:
		return Interval{Lo: -inf, Hi: p.Value.Coord(), HiOpen: true}, true
	case OpLE:
		return Interval{Lo: -inf, Hi: p.Value.Coord()}, true
	case OpGT:
		return Interval{Lo: p.Value.Coord(), Hi: inf, LoOpen: true}, true
	case OpGE:
		return Interval{Lo: p.Value.Coord(), Hi: inf}, true
	case OpBetween:
		return Interval{Lo: p.Lo.Coord(), Hi: p.Hi.Coord()}, true
	default:
		return Interval{}, false
	}
}

// JoinPredicate is an equality join between two table instances.
type JoinPredicate struct {
	LeftSlot, RightSlot int
	LeftCol, RightCol   string
	LeftOrd, RightOrd   int
}

// String renders the join predicate.
func (j JoinPredicate) String() string {
	var buf [64]byte
	return string(j.AppendText(buf[:0]))
}

// AppendText appends the join predicate's text, "[0].a = [1].b", to dst.
func (j JoinPredicate) AppendText(dst []byte) []byte {
	dst = append(dst, '[')
	dst = strconv.AppendInt(dst, int64(j.LeftSlot), 10)
	dst = append(dst, "]."...)
	dst = append(dst, j.LeftCol...)
	dst = append(dst, " = ["...)
	dst = strconv.AppendInt(dst, int64(j.RightSlot), 10)
	dst = append(dst, "]."...)
	return append(dst, j.RightCol...)
}

// Projection is one resolved output expression.
type Projection struct {
	Star    bool
	Agg     sqlparser.AggKind
	Slot    int
	Ordinal int
	Column  string
	Alias   string // display name
}

// OrderKey is one resolved ORDER BY entry. When ByAlias is set the key
// refers to the projection with that alias instead of a base column.
type OrderKey struct {
	Slot    int
	Ordinal int
	ByAlias string
	Desc    bool
}

// GroupKey is one resolved GROUP BY column.
type GroupKey struct {
	Slot    int
	Ordinal int
	Column  string
}

// SemiJoin connects an outer-block column to an inner query block: the
// outer row qualifies when its value appears in the inner block's
// single-column result (`col IN (SELECT ...)`). The engine executes the
// inner block first and lowers the semi-join into an IN predicate on the
// outer block before optimizing it.
type SemiJoin struct {
	Slot    int    // outer table instance
	Ordinal int    // outer column position
	Column  string // outer column name
	Block   int    // index of the inner block in Query.Blocks
}

// Block is one SPJ query block.
type Block struct {
	Tables      []TableInstance
	LocalPreds  [][]Predicate // indexed by table slot
	JoinPreds   []JoinPredicate
	SemiJoins   []SemiJoin
	Projections []Projection
	GroupBy     []GroupKey
	OrderBy     []OrderKey
	Distinct    bool
	Limit       int // -1 when absent
}

// Query is the rewritten form of a statement: its query blocks. Blocks[0]
// is the outermost block; IN-subqueries contribute further blocks that the
// outer block's SemiJoins reference. The slice form matches the paper's
// Algorithm 1, which iterates over all blocks of a query.
type Query struct {
	Blocks []*Block
	SQL    string // original text, for diagnostics
}

// Build resolves and rewrites a parsed SELECT into a Query.
func Build(sel *sqlparser.SelectStmt, resolver SchemaResolver) (*Query, error) {
	q := &Query{Blocks: []*Block{nil}} // reserve the outer slot
	b, err := buildBlock(sel, resolver, q, 0)
	if err != nil {
		return nil, err
	}
	q.Blocks[0] = b
	return q, nil
}

func buildBlock(sel *sqlparser.SelectStmt, resolver SchemaResolver, q *Query, depth int) (*Block, error) {
	blk := &Block{Limit: sel.Limit, Distinct: sel.Distinct}

	aliasToSlot := make(map[string]int)
	for _, ref := range sel.From {
		schema, ok := resolver.TableSchema(ref.Table)
		if !ok {
			return nil, fmt.Errorf("qgm: unknown table %q", ref.Table)
		}
		if _, dup := aliasToSlot[ref.Alias]; dup {
			return nil, fmt.Errorf("qgm: duplicate table alias %q", ref.Alias)
		}
		aliasToSlot[ref.Alias] = len(blk.Tables)
		blk.Tables = append(blk.Tables, TableInstance{Alias: ref.Alias, Table: ref.Table, Schema: schema})
	}
	blk.LocalPreds = make([][]Predicate, len(blk.Tables))

	resolve := func(ref sqlparser.ColumnRef) (slot, ord int, err error) {
		if ref.Qualifier != "" {
			s, ok := aliasToSlot[ref.Qualifier]
			if !ok {
				return 0, 0, fmt.Errorf("qgm: unknown table alias %q", ref.Qualifier)
			}
			o, ok := blk.Tables[s].Schema.Ordinal(ref.Column)
			if !ok {
				return 0, 0, fmt.Errorf("qgm: table %s has no column %q", blk.Tables[s].Table, ref.Column)
			}
			return s, o, nil
		}
		found := -1
		foundOrd := 0
		for s, ti := range blk.Tables {
			if o, ok := ti.Schema.Ordinal(ref.Column); ok {
				if found >= 0 {
					return 0, 0, fmt.Errorf("qgm: ambiguous column %q (in %s and %s)",
						ref.Column, blk.Tables[found].Table, ti.Table)
				}
				found, foundOrd = s, o
			}
		}
		if found < 0 {
			return 0, 0, fmt.Errorf("qgm: unknown column %q", ref.Column)
		}
		return found, foundOrd, nil
	}

	// WHERE: split into local predicates (bucketed per slot) and join
	// predicates. Duplicate conjuncts are dropped during rewrite.
	for _, e := range sel.Where {
		switch x := e.(type) {
		case *sqlparser.Comparison:
			if x.RightIsCol {
				ls, lo, err := resolve(x.Left)
				if err != nil {
					return nil, err
				}
				rs, ro, err := resolve(x.RightCol)
				if err != nil {
					return nil, err
				}
				if ls == rs {
					return nil, fmt.Errorf("qgm: same-table column comparison %s is not supported", e)
				}
				if x.Op != sqlparser.OpEQ {
					return nil, fmt.Errorf("qgm: only equality joins are supported, got %s", e)
				}
				jp := JoinPredicate{
					LeftSlot: ls, LeftOrd: lo, LeftCol: blk.Tables[ls].Schema.Column(lo).Name,
					RightSlot: rs, RightOrd: ro, RightCol: blk.Tables[rs].Schema.Column(ro).Name,
				}
				if !slices.Contains(blk.JoinPreds, jp) {
					blk.JoinPreds = append(blk.JoinPreds, jp)
				}
				continue
			}
			s, o, err := resolve(x.Left)
			if err != nil {
				return nil, err
			}
			pop, err := compareOpToPredOp(x.Op)
			if err != nil {
				return nil, err
			}
			p := Predicate{
				Slot: s, Column: blk.Tables[s].Schema.Column(o).Name, Ordinal: o,
				Op: pop, Value: x.RightVal,
			}
			addLocal(blk, p)

		case *sqlparser.Between:
			s, o, err := resolve(x.Col)
			if err != nil {
				return nil, err
			}
			p := Predicate{
				Slot: s, Column: blk.Tables[s].Schema.Column(o).Name, Ordinal: o,
				Op: OpBetween, Lo: x.Lo, Hi: x.Hi,
			}
			addLocal(blk, p)

		case *sqlparser.InList:
			s, o, err := resolve(x.Col)
			if err != nil {
				return nil, err
			}
			p := Predicate{
				Slot: s, Column: blk.Tables[s].Schema.Column(o).Name, Ordinal: o,
				Op: OpIn, Values: x.Values,
			}
			addLocal(blk, p)

		case *sqlparser.InSubquery:
			if depth >= 1 {
				return nil, fmt.Errorf("qgm: nested subqueries are not supported")
			}
			s, o, err := resolve(x.Col)
			if err != nil {
				return nil, err
			}
			if len(x.Select.Projections) != 1 ||
				(x.Select.Projections[0].Star && x.Select.Projections[0].Agg == sqlparser.AggNone) {
				return nil, fmt.Errorf("qgm: IN subquery must project exactly one column")
			}
			inner, err := buildBlock(x.Select, resolver, q, depth+1)
			if err != nil {
				return nil, err
			}
			q.Blocks = append(q.Blocks, inner)
			blk.SemiJoins = append(blk.SemiJoins, SemiJoin{
				Slot: s, Ordinal: o,
				Column: blk.Tables[s].Schema.Column(o).Name,
				Block:  len(q.Blocks) - 1,
			})

		default:
			return nil, fmt.Errorf("qgm: unsupported predicate %T", e)
		}
	}

	// Projections.
	aliases := make(map[string]bool)
	for _, pe := range sel.Projections {
		if pe.Star && pe.Agg == sqlparser.AggNone {
			blk.Projections = append(blk.Projections, Projection{Star: true, Alias: "*"})
			continue
		}
		proj := Projection{Agg: pe.Agg, Alias: pe.Alias}
		if pe.Star { // COUNT(*)
			proj.Star = true
			proj.Slot = -1
			if proj.Alias == "" {
				proj.Alias = "count(*)"
			}
		} else {
			s, o, err := resolve(pe.Col)
			if err != nil {
				return nil, err
			}
			proj.Slot, proj.Ordinal, proj.Column = s, o, blk.Tables[s].Schema.Column(o).Name
			if proj.Alias == "" {
				if pe.Agg != sqlparser.AggNone {
					proj.Alias = strings.ToLower(pe.Agg.String()) + "(" + proj.Column + ")"
				} else {
					proj.Alias = proj.Column
				}
			}
		}
		if aliases[proj.Alias] {
			return nil, fmt.Errorf("qgm: duplicate output column %q (use AS to disambiguate)", proj.Alias)
		}
		aliases[proj.Alias] = true
		blk.Projections = append(blk.Projections, proj)
	}

	// GROUP BY.
	for _, g := range sel.GroupBy {
		s, o, err := resolve(g)
		if err != nil {
			return nil, err
		}
		blk.GroupBy = append(blk.GroupBy, GroupKey{Slot: s, Ordinal: o, Column: blk.Tables[s].Schema.Column(o).Name})
	}
	if len(blk.GroupBy) > 0 || hasAggregate(blk.Projections) {
		for _, p := range blk.Projections {
			if p.Star && p.Agg == sqlparser.AggNone {
				return nil, fmt.Errorf("qgm: SELECT * cannot be combined with aggregation")
			}
			if p.Agg == sqlparser.AggNone && !groupedBy(blk.GroupBy, p) {
				return nil, fmt.Errorf("qgm: column %q must appear in GROUP BY or an aggregate", p.Alias)
			}
		}
	}

	// ORDER BY: a key may name a projection alias or a base column.
	for _, oi := range sel.OrderBy {
		if oi.Col.Qualifier == "" && aliases[oi.Col.Column] {
			blk.OrderBy = append(blk.OrderBy, OrderKey{ByAlias: oi.Col.Column, Desc: oi.Desc})
			continue
		}
		s, o, err := resolve(oi.Col)
		if err != nil {
			return nil, err
		}
		if blk.Distinct && !projects(blk.Projections, s, o) {
			return nil, fmt.Errorf("%w: %s is not", ErrDistinctOrderBy, oi.Col.Column)
		}
		blk.OrderBy = append(blk.OrderBy, OrderKey{Slot: s, Ordinal: o, Desc: oi.Desc})
	}

	return blk, nil
}

// compareOpToPredOp maps parser comparison operators onto predicate ops.
// An unknown operator (a parser extension QGM does not handle yet) is a
// compile error surfaced to the statement, never a crash.
func compareOpToPredOp(op sqlparser.CompareOp) (PredOp, error) {
	switch op {
	case sqlparser.OpEQ:
		return OpEQ, nil
	case sqlparser.OpNE:
		return OpNE, nil
	case sqlparser.OpLT:
		return OpLT, nil
	case sqlparser.OpLE:
		return OpLE, nil
	case sqlparser.OpGT:
		return OpGT, nil
	case sqlparser.OpGE:
		return OpGE, nil
	default:
		return 0, fmt.Errorf("qgm: unknown comparison operator %v", op)
	}
}

// addLocal keeps p unless its slot already holds a predicate with the same
// text.
func addLocal(blk *Block, p Predicate) {
	for _, q := range blk.LocalPreds[p.Slot] {
		if q.SameText(p) {
			return
		}
	}
	blk.LocalPreds[p.Slot] = append(blk.LocalPreds[p.Slot], p)
}

// ErrDistinctOrderBy rejects SELECT DISTINCT ordered by a column it does not
// output: rows that differ only in that column collapse into one, which then
// has no single place in the order (SQL forbids it for the same reason).
var ErrDistinctOrderBy = errors.New("qgm: for SELECT DISTINCT, ORDER BY columns must appear in the select list")

// projects reports whether the select list outputs column (slot, ordinal)
// as it is: by name or under SELECT *.
func projects(projs []Projection, slot, ordinal int) bool {
	for _, p := range projs {
		if p.Agg == sqlparser.AggNone && (p.Star || (p.Slot == slot && p.Ordinal == ordinal)) {
			return true
		}
	}
	return false
}

func hasAggregate(projs []Projection) bool {
	for _, p := range projs {
		if p.Agg != sqlparser.AggNone {
			return true
		}
	}
	return false
}

// Aggregated reports whether the block's output passes through the
// executor's aggregation stage (GROUP BY or aggregate projections) — there
// is no aggregation plan node, so consumers that need to know ask the block.
func (b *Block) Aggregated() bool {
	return len(b.GroupBy) > 0 || hasAggregate(b.Projections)
}

func groupedBy(keys []GroupKey, p Projection) bool {
	for _, k := range keys {
		if k.Slot == p.Slot && k.Ordinal == p.Ordinal {
			return true
		}
	}
	return false
}

// BuildLocalPredicates resolves a conjunction of parsed WHERE expressions
// against a single table's schema — the path UPDATE and DELETE statements
// take, where no aliases or joins exist. Column-to-column comparisons are
// rejected.
func BuildLocalPredicates(schema *storage.Schema, exprs []sqlparser.Expr) ([]Predicate, error) {
	resolve := func(ref sqlparser.ColumnRef) (int, error) {
		o, ok := schema.Ordinal(ref.Column)
		if !ok {
			return 0, fmt.Errorf("qgm: unknown column %q", ref.Column)
		}
		return o, nil
	}
	var out []Predicate
	for _, e := range exprs {
		switch x := e.(type) {
		case *sqlparser.Comparison:
			if x.RightIsCol {
				return nil, fmt.Errorf("qgm: column comparison %s not allowed here", e)
			}
			o, err := resolve(x.Left)
			if err != nil {
				return nil, err
			}
			pop, err := compareOpToPredOp(x.Op)
			if err != nil {
				return nil, err
			}
			out = append(out, Predicate{
				Column: schema.Column(o).Name, Ordinal: o,
				Op: pop, Value: x.RightVal,
			})
		case *sqlparser.Between:
			o, err := resolve(x.Col)
			if err != nil {
				return nil, err
			}
			out = append(out, Predicate{
				Column: schema.Column(o).Name, Ordinal: o,
				Op: OpBetween, Lo: x.Lo, Hi: x.Hi,
			})
		case *sqlparser.InList:
			o, err := resolve(x.Col)
			if err != nil {
				return nil, err
			}
			out = append(out, Predicate{
				Column: schema.Column(o).Name, Ordinal: o,
				Op: OpIn, Values: x.Values,
			})
		default:
			return nil, fmt.Errorf("qgm: unsupported predicate %T", e)
		}
	}
	return out, nil
}

// GroupColumns extracts the distinct sorted column names of a predicate
// group.
func GroupColumns(preds []Predicate) []string {
	set := make(map[string]bool, len(preds))
	for _, p := range preds {
		set[p.Column] = true
	}
	cols := make([]string, 0, len(set))
	for c := range set {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// JoinGraph summarizes which slots are connected by join predicates;
// the optimizer's enumerator uses it to stay in the connected subgraph.
func (b *Block) JoinGraph() [][]int {
	adj := make([][]int, len(b.Tables))
	for _, jp := range b.JoinPreds {
		adj[jp.LeftSlot] = append(adj[jp.LeftSlot], jp.RightSlot)
		adj[jp.RightSlot] = append(adj[jp.RightSlot], jp.LeftSlot)
	}
	return adj
}
