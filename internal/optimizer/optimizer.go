package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/index"
	"repro/internal/qgm"
)

// dpMaxTables bounds exhaustive dynamic-programming enumeration; larger
// blocks fall back to a greedy heuristic.
const dpMaxTables = 10

// Context carries everything Optimize needs. Meter is the *compilation*
// meter: every plan alternative costed charges PlanCandidate units, so
// optimization effort shows up in compilation time as it does in the paper.
type Context struct {
	Est     *Estimator
	Indexes *index.Set
	Weights costmodel.Weights
	Meter   *costmodel.Meter
}

func (c *Context) charge() {
	if c.Meter != nil {
		c.Meter.Add(c.Weights.PlanCandidate)
	}
}

// Optimize selects a join tree for the block: access paths per table
// instance, then dynamic-programming join-order enumeration with hash-join
// and index-nested-loop alternatives.
func Optimize(blk *qgm.Block, ctx *Context) (Node, error) {
	n := len(blk.Tables)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: block has no tables")
	}
	leaves := make([]Node, n)
	for slot := range blk.Tables {
		leaves[slot] = ctx.bestAccessPath(blk, slot)
	}
	return ctx.enumerate(blk, leaves)
}

// bestAccessPath picks the cheaper of a full table scan and the best index
// range scan for one table instance, estimating the output with the *full*
// local predicate group.
func (ctx *Context) bestAccessPath(blk *qgm.Block, slot int) *Scan {
	ti := blk.Tables[slot]
	preds := blk.LocalPreds[slot]
	card, _ := ctx.Est.TableCard(ti.Table)
	est := ctx.Est.EstimateGroup(ti.Table, preds)
	outRows := card * est.Sel
	// Chaos probe: skew only the plan's output estimate, never the trace's
	// EstSel — the feedback archive must keep learning true selectivities
	// while the plan itself is deliberately wrong.
	outRows = faultinject.ScaleIf(faultinject.EstimatorMisestimate, outRows)
	w := ctx.Weights

	trace := &Trace{
		Table:    ti.Table,
		Alias:    ti.Alias,
		ColGrp:   qgm.ColumnGroup(ti.Table, qgm.GroupColumns(preds)),
		StatList: est.StatList,
		EstSel:   est.Sel,
		BaseCard: card,
		FromQSS:  est.FromQSS,
	}

	best := &Scan{
		Slot: slot, Alias: ti.Alias, Table: ti.Table, Preds: preds,
		EstRows: outRows, Card: card, Tr: trace,
		EstCost: card*w.SeqRow + outRows*w.RowOut,
	}
	ctx.charge()

	if ctx.Indexes == nil {
		return best
	}
	for i := range preds {
		p := preds[i]
		if _, boxable := p.Region(); !boxable && p.Op != qgm.OpEQ {
			continue
		}
		if _, ok := ctx.Indexes.Find(ti.Table, p.Column); !ok {
			continue
		}
		single := ctx.Est.EstimateGroup(ti.Table, []qgm.Predicate{p})
		fetched := card * single.Sel
		cost := w.IndexProbe + fetched*w.IndexRow + outRows*w.RowOut
		ctx.charge()
		if cost < best.EstCost {
			pc := p
			best = &Scan{
				Slot: slot, Alias: ti.Alias, Table: ti.Table, Preds: preds,
				IndexColumn: p.Column, IndexPred: &pc, IndexSel: single.Sel,
				EstRows: outRows, Card: card, Tr: trace,
				EstCost: cost,
			}
		}
	}
	return best
}

// predsBetween returns the join predicates connecting two slot sets,
// normalized so Left refers to the left set.
func predsBetween(blk *qgm.Block, leftSlots, rightSlots map[int]bool) []qgm.JoinPredicate {
	var out []qgm.JoinPredicate
	for _, jp := range blk.JoinPreds {
		switch {
		case leftSlots[jp.LeftSlot] && rightSlots[jp.RightSlot]:
			out = append(out, jp)
		case leftSlots[jp.RightSlot] && rightSlots[jp.LeftSlot]:
			out = append(out, qgm.JoinPredicate{
				LeftSlot: jp.RightSlot, LeftCol: jp.RightCol, LeftOrd: jp.RightOrd,
				RightSlot: jp.LeftSlot, RightCol: jp.LeftCol, RightOrd: jp.LeftOrd,
			})
		}
	}
	return out
}

func slotSet(slots []int) map[int]bool {
	m := make(map[int]bool, len(slots))
	for _, s := range slots {
		m[s] = true
	}
	return m
}

// joinOutput estimates the cardinality of joining two subtrees.
func (ctx *Context) joinOutput(blk *qgm.Block, left, right Node, preds []qgm.JoinPredicate) float64 {
	rows := left.Rows() * right.Rows()
	for _, jp := range preds {
		lt := blk.Tables[jp.LeftSlot].Table
		rt := blk.Tables[jp.RightSlot].Table
		rows *= ctx.Est.JoinSelectivity(jp, lt, rt)
	}
	if rows < 0 {
		rows = 0
	}
	return rows
}

// buildJoin costs the physical alternatives for joining left and right and
// returns the cheapest. Right-as-scan enables index nested loops.
func (ctx *Context) buildJoin(blk *qgm.Block, left, right Node, preds []qgm.JoinPredicate) *Join {
	w := ctx.Weights
	out := ctx.joinOutput(blk, left, right, preds)

	var best *Join
	consider := func(j *Join) {
		ctx.charge()
		if best == nil || j.EstCost < best.EstCost {
			best = j
		}
	}

	if len(preds) > 0 {
		// Hash join: build on left, probe with right — callers offer both
		// orders, so both build sides get considered.
		consider(&Join{
			Left: left, Right: right, Method: HashJoin, Preds: preds,
			EstRows: out,
			EstCost: left.Cost() + right.Cost() + left.Rows()*w.HashBuild + right.Rows()*w.HashProbe + out*w.RowOut,
		})
		// Sort-merge join: sort both inputs on the join keys, then merge.
		sortCost := func(rows float64) float64 {
			if rows < 2 {
				return 0
			}
			return rows * math.Log2(rows) * w.SortRow
		}
		consider(&Join{
			Left: left, Right: right, Method: MergeJoin, Preds: preds,
			EstRows: out,
			EstCost: left.Cost() + right.Cost() +
				sortCost(left.Rows()) + sortCost(right.Rows()) +
				(left.Rows()+right.Rows())*w.SeqRow + out*w.RowOut,
		})
		// Index nested loops: right must be a base-table scan with an index
		// on one of the join columns.
		if scan, ok := right.(*Scan); ok && ctx.Indexes != nil {
			for _, jp := range preds {
				if jp.RightSlot != scan.Slot {
					continue
				}
				if _, ok := ctx.Indexes.Find(scan.Table, jp.RightCol); !ok {
					continue
				}
				fetchPerOuter := scan.Card * ctx.Est.JoinSelectivity(jp, blk.Tables[jp.LeftSlot].Table, scan.Table)
				cost := left.Cost() +
					left.Rows()*w.IndexProbe +
					left.Rows()*fetchPerOuter*w.IndexRow +
					out*w.RowOut
				consider(&Join{
					Left: left, Right: right, Method: IndexNLJoin, Preds: preds,
					EstRows: out, EstCost: cost,
				})
				break
			}
		}
	} else {
		// Cartesian product fallback.
		consider(&Join{
			Left: left, Right: right, Method: NestedLoopJoin, Preds: nil,
			EstRows: out,
			EstCost: left.Cost() + right.Cost() + left.Rows()*right.Rows()*w.HashProbe + out*w.RowOut,
		})
	}
	return best
}

// enumerate picks the join-enumeration strategy by leaf count. Leaves are
// arbitrary plan nodes — base-table scans for initial planning, plus
// materialized intermediates when re-optimizing mid-query.
func (ctx *Context) enumerate(blk *qgm.Block, leaves []Node) (Node, error) {
	if len(leaves) == 1 {
		return leaves[0], nil
	}
	if len(leaves) <= dpMaxTables {
		return ctx.dpEnumerate(blk, leaves)
	}
	return ctx.greedyEnumerate(blk, leaves)
}

// dpEnumerate performs classic bottom-up dynamic programming over leaf
// subsets, preferring connected sub-plans and falling back to cartesian
// products only when a subset has no connected partition. Masks index
// leaves, not table slots: a leaf may cover several slots (a materialized
// intermediate), and predsBetween only ever needs the slot *sets* each
// subtree produces.
func (ctx *Context) dpEnumerate(blk *qgm.Block, leaves []Node) (Node, error) {
	n := len(leaves)
	best := make([]Node, 1<<n)
	for i, l := range leaves {
		best[1<<i] = l
	}
	fullMask := (1 << n) - 1
	for mask := 1; mask <= fullMask; mask++ {
		if best[mask] != nil || bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		var cheapest Node
		tryPartitions := func(requireConnection bool) {
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				rest := mask ^ sub
				l, r := best[sub], best[rest]
				if l == nil || r == nil {
					continue
				}
				preds := predsBetween(blk, slotSet(l.Slots()), slotSet(r.Slots()))
				if requireConnection && len(preds) == 0 {
					continue
				}
				j := ctx.buildJoin(blk, l, r, preds)
				if j != nil && (cheapest == nil || j.Cost() < cheapest.Cost()) {
					cheapest = j
				}
			}
		}
		tryPartitions(true)
		if cheapest == nil {
			tryPartitions(false)
		}
		best[mask] = cheapest
	}
	if best[fullMask] == nil {
		return nil, fmt.Errorf("optimizer: no plan found for %d tables", n)
	}
	return best[fullMask], nil
}

// greedyEnumerate joins the cheapest connected pair repeatedly — used for
// blocks beyond the DP budget.
func (ctx *Context) greedyEnumerate(blk *qgm.Block, leaves []Node) (Node, error) {
	nodes := append([]Node(nil), leaves...)
	for len(nodes) > 1 {
		type cand struct {
			i, j int
			join *Join
		}
		var best *cand
		tryPair := func(requireConnection bool) {
			for i := 0; i < len(nodes); i++ {
				for j := 0; j < len(nodes); j++ {
					if i == j {
						continue
					}
					preds := predsBetween(blk, slotSet(nodes[i].Slots()), slotSet(nodes[j].Slots()))
					if requireConnection && len(preds) == 0 {
						continue
					}
					jn := ctx.buildJoin(blk, nodes[i], nodes[j], preds)
					if jn != nil && (best == nil || jn.Cost() < best.join.Cost()) {
						best = &cand{i: i, j: j, join: jn}
					}
				}
			}
		}
		tryPair(true)
		if best == nil {
			tryPair(false)
		}
		if best == nil {
			return nil, fmt.Errorf("optimizer: greedy enumeration stuck with %d nodes", len(nodes))
		}
		// Replace the pair with the join; preserve deterministic order.
		lo, hi := best.i, best.j
		if lo > hi {
			lo, hi = hi, lo
		}
		merged := append([]Node(nil), nodes[:lo]...)
		merged = append(merged, best.join)
		merged = append(merged, nodes[lo+1:hi]...)
		merged = append(merged, nodes[hi+1:]...)
		nodes = merged
	}
	return nodes[0], nil
}

// CollectScans returns the scan leaves of a plan in deterministic
// (slot-sorted) order; the engine uses it to wire feedback.
func CollectScans(n Node) []*Scan {
	var out []*Scan
	var walk func(Node)
	walk = func(node Node) {
		switch x := node.(type) {
		case *Scan:
			out = append(out, x)
		case *Join:
			walk(x.Left)
			walk(x.Right)
		}
	}
	walk(n)
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}
