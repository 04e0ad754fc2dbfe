package optimizer

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/qgm"
)

// JoinMethod enumerates the physical join operators.
type JoinMethod uint8

// Physical join methods. IndexNLJoin requires the inner (right) side to be
// a base-table scan with an index on the join column. MergeJoin sorts both
// inputs on the join keys and merges.
const (
	HashJoin JoinMethod = iota
	IndexNLJoin
	MergeJoin
	NestedLoopJoin // fallback for cross joins / disconnected graphs
)

// String names the method as shown in EXPLAIN output.
func (m JoinMethod) String() string {
	switch m {
	case HashJoin:
		return "HashJoin"
	case IndexNLJoin:
		return "IndexNLJoin"
	case MergeJoin:
		return "MergeJoin"
	case NestedLoopJoin:
		return "NestedLoopJoin"
	default:
		return "?"
	}
}

// Node is one operator of the optimized join tree. The executor lowers
// nodes into iterators; the block's aggregation/ordering/projection spec is
// applied above the root by the executor.
type Node interface {
	// Rows is the optimizer's output-cardinality estimate.
	Rows() float64
	// Cost is the estimated cumulative work in cost-model units.
	Cost() float64
	// Slots lists the table slots this subtree produces.
	Slots() []int
	explain(sb *strings.Builder, indent int, ann AnnotateFunc)
}

// Annotation carries one operator's runtime actuals for EXPLAIN ANALYZE:
// what the executor really saw, next to the printed estimates. Units and
// Wall are cumulative over the operator's subtree, matching Cost().
type Annotation struct {
	// ActualRows is the number of rows the operator emitted.
	ActualRows float64
	// Units is the metered work charged while the subtree executed.
	Units float64
	// Wall is the wall-clock time the subtree took.
	Wall time.Duration
	// Flags carries degradation/fallback notes (e.g. a scan whose JITS
	// collection degraded to catalog statistics); empty when clean.
	Flags string
}

// AnnotateFunc resolves a plan node to its runtime annotation; ok=false
// leaves the node unannotated (e.g. a subtree skipped by an early error).
type AnnotateFunc func(Node) (Annotation, bool)

// annotate appends the EXPLAIN ANALYZE suffix for one node.
func annotate(sb *strings.Builder, n Node, ann AnnotateFunc) {
	if ann == nil {
		return
	}
	a, ok := ann(n)
	if !ok {
		return
	}
	sb.WriteString(" (actual rows=")
	writeFixed(sb, a.ActualRows, 0)
	sb.WriteString(" units=")
	writeFixed(sb, a.Units, 0)
	sb.WriteString(" wall=")
	sb.WriteString(a.Wall.String())
	sb.WriteByte(')')
	if a.Flags != "" {
		sb.WriteString(" [")
		sb.WriteString(a.Flags)
		sb.WriteByte(']')
	}
}

// writeFixed writes x with prec digits after the point, as %.<prec>f does.
func writeFixed(sb *strings.Builder, x float64, prec int) {
	var buf [32]byte
	sb.Write(strconv.AppendFloat(buf[:0], x, 'f', prec, 64))
}

// writeRowsCost writes the " rows=%.1f cost=%.0f" columns every EXPLAIN line
// carries.
func writeRowsCost(sb *strings.Builder, rows, cost float64) {
	sb.WriteString(" rows=")
	writeFixed(sb, rows, 1)
	sb.WriteString(" cost=")
	writeFixed(sb, cost, 0)
}

// writeIndent writes an EXPLAIN line's indentation, two spaces a level.
func writeIndent(sb *strings.Builder, indent int) {
	for range indent {
		sb.WriteString("  ")
	}
}

// Trace records the provenance of a scan's selectivity estimate so the
// feedback loop can attribute estimation error to specific statistics.
type Trace struct {
	Table    string         // base table name
	Alias    string         // instance alias
	ColGrp   qgm.StatName   // column group of the full local group
	StatList []qgm.StatName // statistics combined for the estimate
	EstSel   float64        // estimated selectivity of the full local group
	BaseCard float64        // estimated base-table cardinality used
	FromQSS  bool
}

// Scan reads one base table, applying all local predicates. When
// IndexColumn is non-empty the scan drives through the index using
// IndexPred, which points into Preds, and filters the remaining predicates
// afterwards.
type Scan struct {
	Slot        int
	Alias       string
	Table       string
	Preds       []qgm.Predicate
	IndexColumn string
	IndexPred   *qgm.Predicate
	IndexSel    float64 // estimated selectivity of IndexPred alone

	EstRows float64
	EstCost float64
	Card    float64 // estimated base cardinality
	Tr      *Trace
}

// Rows implements Node.
func (s *Scan) Rows() float64 { return s.EstRows }

// Cost implements Node.
func (s *Scan) Cost() float64 { return s.EstCost }

// Slots implements Node.
func (s *Scan) Slots() []int { return []int{s.Slot} }

// Describe returns the operator's compact label as it appears at the start
// of its EXPLAIN line, e.g. "TableScan car as c" or "IndexScan(make) car as c".
func (s *Scan) Describe() string {
	var sb strings.Builder
	s.describe(&sb)
	return sb.String()
}

func (s *Scan) describe(sb *strings.Builder) {
	if s.IndexColumn != "" {
		sb.WriteString("IndexScan(")
		sb.WriteString(s.IndexColumn)
		sb.WriteByte(')')
	} else {
		sb.WriteString("TableScan")
	}
	sb.WriteByte(' ')
	sb.WriteString(s.Table)
	sb.WriteString(" as ")
	sb.WriteString(s.Alias)
}

func (s *Scan) explain(sb *strings.Builder, indent int, ann AnnotateFunc) {
	writeIndent(sb, indent)
	s.describe(sb)
	if len(s.Preds) > 0 {
		var buf [128]byte
		sb.WriteString(" filter[")
		for i, p := range s.Preds {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			sb.Write(p.AppendText(buf[:0]))
		}
		sb.WriteByte(']')
	}
	writeRowsCost(sb, s.EstRows, s.EstCost)
	annotate(sb, s, ann)
	sb.WriteByte('\n')
}

// Materialized is a re-optimization leaf: an intermediate relation a prior
// execution attempt already computed and checkpointed at a pipeline breaker.
// The re-entrant optimizer treats it as a base table with *exact*
// cardinality (ActRows, observed at the checkpoint) and zero cost — the
// work is sunk; only the unexecuted remainder of the plan is re-planned
// around it. The executor resolves the node by ID to the stored relation
// and never re-executes the subtree it replaced.
type Materialized struct {
	ID       int    // checkpoint id, resolved by the executor's reopt state
	SlotList []int  // table slots the materialized relation covers
	Desc     string // label of the operator that produced the relation
	ActRows  float64
}

// Rows implements Node; exact by construction, so its q-error is 1 and a
// materialized leaf can never re-trigger re-optimization.
func (m *Materialized) Rows() float64 { return m.ActRows }

// Cost implements Node. The relation is already computed — sunk cost.
func (m *Materialized) Cost() float64 { return 0 }

// Slots implements Node.
func (m *Materialized) Slots() []int { return m.SlotList }

// Describe returns the operator's compact label as it appears at the start
// of its EXPLAIN line, e.g. "Materialized#1[HashJoin on[c.make = s.make]]".
func (m *Materialized) Describe() string {
	var sb strings.Builder
	m.describe(&sb)
	return sb.String()
}

func (m *Materialized) describe(sb *strings.Builder) {
	sb.WriteString("Materialized#")
	sb.WriteString(strconv.Itoa(m.ID))
	sb.WriteByte('[')
	sb.WriteString(m.Desc)
	sb.WriteByte(']')
}

func (m *Materialized) explain(sb *strings.Builder, indent int, ann AnnotateFunc) {
	writeIndent(sb, indent)
	m.describe(sb)
	sb.WriteString(" rows=")
	writeFixed(sb, m.ActRows, 1)
	sb.WriteString(" cost=0")
	annotate(sb, m, ann)
	sb.WriteByte('\n')
}

// Join combines two subtrees on equality predicates.
type Join struct {
	Left, Right Node
	Method      JoinMethod
	Preds       []qgm.JoinPredicate // predicates connecting Left's and Right's slots

	EstRows float64
	EstCost float64
}

// Rows implements Node.
func (j *Join) Rows() float64 { return j.EstRows }

// Cost implements Node.
func (j *Join) Cost() float64 { return j.EstCost }

// Slots implements Node.
func (j *Join) Slots() []int {
	return append(append([]int(nil), j.Left.Slots()...), j.Right.Slots()...)
}

// Describe returns the operator's compact label as it appears at the start
// of its EXPLAIN line, e.g. "HashJoin on[c.make = s.make]".
func (j *Join) Describe() string {
	var sb strings.Builder
	j.describe(&sb)
	return sb.String()
}

func (j *Join) describe(sb *strings.Builder) {
	var buf [64]byte
	sb.WriteString(j.Method.String())
	sb.WriteString(" on[")
	for i, p := range j.Preds {
		if i > 0 {
			sb.WriteString(" AND ")
		}
		sb.Write(p.AppendText(buf[:0]))
	}
	sb.WriteByte(']')
}

func (j *Join) explain(sb *strings.Builder, indent int, ann AnnotateFunc) {
	writeIndent(sb, indent)
	j.describe(sb)
	writeRowsCost(sb, j.EstRows, j.EstCost)
	annotate(sb, j, ann)
	sb.WriteByte('\n')
	j.Left.explain(sb, indent+1, ann)
	j.Right.explain(sb, indent+1, ann)
}

// Walk visits n and every descendant in pre-order (node, left, right).
// Introspection uses it to enumerate plan operators in the same order
// EXPLAIN prints them.
func Walk(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	if j, ok := n.(*Join); ok {
		Walk(j.Left, fn)
		Walk(j.Right, fn)
	}
}

// ExplainAnnotated renders the join tree with per-operator runtime actuals
// supplied by ann — the EXPLAIN ANALYZE rendering. A nil ann yields the
// plain EXPLAIN text, so estimated columns stay byte-identical between the
// annotated and plain forms; workers > 1 adds a Gather header naming the
// worker count, the shape the executor's morsel-driven operators run in.
func ExplainAnnotated(n Node, workers int, ann AnnotateFunc) string {
	var sb strings.Builder
	indent := 0
	if workers > 1 {
		sb.WriteString("Gather(workers=")
		sb.WriteString(strconv.Itoa(workers))
		sb.WriteString(")\n")
		indent = 1
	}
	n.explain(&sb, indent, ann)
	return sb.String()
}
