package optimizer

import (
	"fmt"
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
	fmt.Fprintf(sb, " (actual rows=%.0f units=%.0f wall=%s)", a.ActualRows, a.Units, a.Wall)
	if a.Flags != "" {
		fmt.Fprintf(sb, " [%s]", a.Flags)
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
// IndexPred and filters the remaining predicates afterwards.
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
	access := "TableScan"
	if s.IndexColumn != "" {
		access = fmt.Sprintf("IndexScan(%s)", s.IndexColumn)
	}
	return fmt.Sprintf("%s %s as %s", access, s.Table, s.Alias)
}

func (s *Scan) explain(sb *strings.Builder, indent int, ann AnnotateFunc) {
	pad := strings.Repeat("  ", indent)
	fmt.Fprintf(sb, "%s%s", pad, s.Describe())
	if len(s.Preds) > 0 {
		parts := make([]string, len(s.Preds))
		for i, p := range s.Preds {
			parts[i] = p.String()
		}
		fmt.Fprintf(sb, " filter[%s]", strings.Join(parts, " AND "))
	}
	fmt.Fprintf(sb, " rows=%.1f cost=%.0f", s.EstRows, s.EstCost)
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
	return fmt.Sprintf("Materialized#%d[%s]", m.ID, m.Desc)
}

func (m *Materialized) explain(sb *strings.Builder, indent int, ann AnnotateFunc) {
	pad := strings.Repeat("  ", indent)
	fmt.Fprintf(sb, "%s%s rows=%.1f cost=0", pad, m.Describe(), m.ActRows)
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
	parts := make([]string, len(j.Preds))
	for i, p := range j.Preds {
		parts[i] = p.String()
	}
	return fmt.Sprintf("%s on[%s]", j.Method, strings.Join(parts, " AND "))
}

func (j *Join) explain(sb *strings.Builder, indent int, ann AnnotateFunc) {
	pad := strings.Repeat("  ", indent)
	fmt.Fprintf(sb, "%s%s rows=%.1f cost=%.0f", pad, j.Describe(), j.EstRows, j.EstCost)
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

// Explain renders the join tree as an indented EXPLAIN string.
func Explain(n Node) string {
	return ExplainAnnotated(n, 1, nil)
}

// ExplainParallel renders the join tree under a Gather header naming the
// worker count, the shape the executor's morsel-driven operators run in
// when the degree of parallelism exceeds one. workers <= 1 renders the
// plain serial plan, so golden EXPLAIN output diffs cleanly between the
// two modes.
func ExplainParallel(n Node, workers int) string {
	return ExplainAnnotated(n, workers, nil)
}

// ExplainAnnotated renders the join tree with per-operator runtime actuals
// supplied by ann — the EXPLAIN ANALYZE rendering. A nil ann yields the
// plain EXPLAIN text; workers > 1 adds the Gather header exactly as
// ExplainParallel does, so estimated columns stay byte-identical between
// the annotated and plain forms.
func ExplainAnnotated(n Node, workers int, ann AnnotateFunc) string {
	var sb strings.Builder
	indent := 0
	if workers > 1 {
		fmt.Fprintf(&sb, "Gather(workers=%d)\n", workers)
		indent = 1
	}
	n.explain(&sb, indent, ann)
	return sb.String()
}
