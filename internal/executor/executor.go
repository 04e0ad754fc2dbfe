// Package executor runs optimized plans against storage. It implements the
// physical operators the optimizer chooses among — table scan, index range
// scan, hash join, index nested-loop join, plain nested loops — plus the
// block-level finishing operators (grouping/aggregation, DISTINCT, ORDER BY,
// LIMIT, projection).
//
// Two responsibilities matter for the paper's pipeline beyond producing
// correct rows. First, every operator charges the execution meter for the
// work it *actually* performs, so a plan chosen from bad estimates genuinely
// costs more simulated time. Second, each base-table access records its
// actual cardinalities (the monitoring LEO does along plan edges), which the
// engine turns into StatHistory error factors after the query completes.
package executor

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/govern"
	"repro/internal/index"
	"repro/internal/morsel"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Runtime bundles the execution environment.
type Runtime struct {
	DB      *storage.Database
	Indexes *index.Set
	Weights costmodel.Weights
	Meter   *costmodel.Meter
	// Ctx carries the statement's deadline/cancellation; nil behaves like
	// context.Background(). Operators check it at morsel boundaries, so a
	// cancelled statement stops within one morsel of work per worker.
	Ctx context.Context
	// Parallelism is the degree of intra-query parallelism: the number of
	// workers scans, hash joins and grouped aggregation may fan out to.
	// Values <= 1 run every operator as a single inline morsel, which
	// reproduces the paper's cost numbers exactly; higher values dispatch
	// morsels to a worker pool while charging the meter the identical totals
	// (the simulated work is the same — only the wall clock shrinks).
	Parallelism int
	// MorselSize overrides the number of rows per morsel; 0 selects
	// morsel.DefaultSize. Tests shrink it to exercise multi-morsel paths on
	// small tables.
	MorselSize int
	// Stats, when non-nil, collects per-plan-node runtime actuals (rows,
	// metered units, wall time) for EXPLAIN ANALYZE. Leave nil on the
	// normal path: collection costs a meter read and a clock read per
	// operator.
	Stats *ExecStats
	// Mem is the statement's memory reservation. Operators charge it what
	// they hold — position vectors, a join's gathered key vectors and build
	// table for the join's lifetime, aggregation state, ORDER BY scratch,
	// the result cells — and fail with a wrapped govern.ErrMemoryBudget when
	// the budget is exhausted. Nil (the default) disables accounting.
	Mem *govern.Reservation
	// Reopt, when non-nil, arms mid-query re-optimization: join-input
	// materializations become checkpoints that register their relations in
	// the state and may unwind execution with *ReoptTriggered when the
	// observed cardinality blows past the plan's estimate. The same state
	// resolves optimizer.Materialized leaves on re-planned attempts. Nil
	// (the default) costs one pointer check per pipeline breaker.
	Reopt *ReoptState
}

// dop returns the effective degree of parallelism (always >= 1).
func (rt *Runtime) dop() int {
	if rt.Parallelism < 1 {
		return 1
	}
	return rt.Parallelism
}

// ctxErr reports the statement context's cancellation error, if any.
func (rt *Runtime) ctxErr() error {
	if rt.Ctx == nil {
		return nil
	}
	return rt.Ctx.Err()
}

func (rt *Runtime) morselSize() int {
	if rt.MorselSize > 0 {
		return rt.MorselSize
	}
	return morsel.DefaultSize
}

func (rt *Runtime) charge(units float64) {
	if rt.Meter != nil {
		rt.Meter.Add(units)
	}
}

// grow charges bytes against the statement's memory reservation. Charges are
// enforced at operator boundaries — an operator reserves its output before
// (or immediately after) materializing it, so accounted growth is bounded to
// one operator's output beyond the budget check. A nil reservation is free.
func (rt *Runtime) grow(bytes int64) error {
	return rt.Mem.Grow(bytes)
}

// shrink returns transient scratch bytes (sort buffers) to the reservation.
func (rt *Runtime) shrink(bytes int64) {
	rt.Mem.Shrink(bytes)
}

// Accounted sizes of what operators hold. A row position is an int32; a
// gathered key is one typed array slot (a string column's wider headers are
// under-counted — budgets bound accounted bytes, see govern.EstimateRowBytes);
// a build-table entry is a map slot plus its chain link.
const (
	posBytes       = 4
	keyBytes       = 8
	hashEntryBytes = 24
)

// NodeStats holds the runtime actuals of one plan operator. Units and Wall
// are cumulative over the operator's subtree — the same convention the
// optimizer's Cost() estimate uses — so estimated and actual columns in
// EXPLAIN ANALYZE compare like for like.
type NodeStats struct {
	Rows  float64
	Units float64
	Wall  time.Duration
}

// ExecStats maps plan nodes to their runtime actuals. It is populated by
// the executor's single driver goroutine (morsel workers report through
// their parent operator, which blocks until they finish), so it needs no
// locking; read it only after Execute returns.
type ExecStats struct {
	nodes map[optimizer.Node]NodeStats
}

// NewExecStats returns an empty collector to hang on Runtime.Stats.
func NewExecStats() *ExecStats {
	return &ExecStats{nodes: make(map[optimizer.Node]NodeStats)}
}

// Lookup returns the recorded actuals for a plan node.
func (s *ExecStats) Lookup(n optimizer.Node) (NodeStats, bool) {
	if s == nil {
		return NodeStats{}, false
	}
	st, ok := s.nodes[n]
	return st, ok
}

// ScanActual reports what one base-table access really saw — the raw
// material for query feedback.
type ScanActual struct {
	Slot     int
	Table    string
	Alias    string
	BaseRows float64 // table cardinality at execution time
	Examined float64 // rows touched (fetched through the access path)
	Matched  float64 // rows surviving all local predicates
	// Conditioned marks index nested-loop inner scans, where the examined
	// rows are already filtered by the join key: Matched/Examined then
	// approximates the local selectivity conditioned on the join.
	Conditioned bool
	Trace       *optimizer.Trace
}

// ActualSelectivity returns the observed selectivity of the scan's local
// predicate group.
func (a ScanActual) ActualSelectivity() float64 {
	if a.Conditioned {
		if a.Examined == 0 {
			return 0
		}
		return a.Matched / a.Examined
	}
	if a.BaseRows == 0 {
		return 0
	}
	return a.Matched / a.BaseRows
}

// Result is the outcome of executing a block, rows boxed: what Execute
// returns. Run returns the same outcome as columns.
type Result struct {
	Columns []string
	Rows    [][]value.Datum
	Actuals []ScanActual
}

// relation is an intermediate result under late materialization: per table
// slot the snapshot the slot was read from and one vector of row positions
// in it, every vector n long. Row r of the relation is row pos[r] of snap
// for each slot it covers (a nil snap = not covered). No value is copied
// until an operator asks for a column.
//
// A relation is immutable once built, and it pins its snapshots: copy-on-
// write keeps the chunks they captured unchanged under later DML, so
// positions are only ever read against the image they were taken from —
// which is what lets a reopt checkpoint keep a relation across attempts.
type relation struct {
	slots []slotRows // indexed by table slot
	n     int
}

type slotRows struct {
	snap *storage.Snapshot
	pos  []int32
}

func (ex *executor) newRelation(n int) *relation {
	return &relation{slots: make([]slotRows, len(ex.blk.Tables)), n: n}
}

// column gathers one column of relation rows [lo, hi) into a typed vector.
func (r *relation) column(slot, ordinal, lo, hi int) *storage.ColumnVec {
	return r.slots[slot].snap.GatherColumn(nil, ordinal, r.slots[slot].pos[lo:hi])
}

// take gathers src at idx: one side's position vector of a join's output.
// A nil idx is the identity.
func take(src, idx []int32) []int32 {
	if idx == nil {
		return src
	}
	out := make([]int32, len(idx))
	for i, j := range idx {
		out[i] = src[j]
	}
	return out
}

// joined builds a join's output and charges its position vectors to the
// reservation under the operator's label: output row i is row li[i] of left
// beside row ri[i] of right (a nil ri: right's rows are already lined up).
func (ex *executor) joined(label string, left, right *relation, li, ri []int32) (*relation, error) {
	n := len(li)
	out := ex.newRelation(n)
	slots := 0
	add := func(side *relation, idx []int32) {
		for s, rows := range side.slots {
			if rows.snap != nil {
				out.slots[s] = slotRows{rows.snap, take(rows.pos, idx)}
				slots++
			}
		}
	}
	add(left, li)
	add(right, ri)
	if err := ex.rt.grow(posBytes * int64(n) * int64(slots)); err != nil {
		return nil, fmt.Errorf("executor: %s output: %w", label, err)
	}
	return out, nil
}

// Execute is Run with the result boxed into rows: the exit for callers that
// want cells rather than columns. Like Run it never panics.
func Execute(blk *qgm.Block, plan optimizer.Node, rt *Runtime) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("executor: recovered panic: %v", p)
		}
	}()
	out, err := Run(blk, plan, rt)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: out.Names, Rows: out.Rows(), Actuals: out.Actuals}, nil
}

// Run runs the plan and applies the block's finishing operators; no value of
// the result is boxed until the caller asks the Columnar for one.
//
// Run never panics: any panic in an operator — a malformed plan hitting
// a Datum accessor, a comparator blowing up inside a parallel sort worker,
// an injected fault — is recovered (the parallel pools drain first, so no
// goroutine outlives the call) and returned as an error.
func Run(blk *qgm.Block, plan optimizer.Node, rt *Runtime) (res *Columnar, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("executor: recovered panic: %v", p)
		}
	}()
	if cerr := rt.ctxErr(); cerr != nil {
		return nil, cerr
	}
	ex := &executor{blk: blk, rt: rt}
	rel, err := ex.run(plan)
	if err != nil {
		return nil, err
	}
	if res, err = ex.finish(rel); err != nil {
		return nil, err
	}
	res.Actuals = ex.actuals
	sort.Slice(res.Actuals, func(i, j int) bool { return res.Actuals[i].Slot < res.Actuals[j].Slot })
	return res, nil
}

type executor struct {
	blk     *qgm.Block
	rt      *Runtime
	actuals []ScanActual
}

func (ex *executor) run(node optimizer.Node) (*relation, error) {
	if err := ex.rt.ctxErr(); err != nil {
		return nil, err
	}
	if st := ex.rt.Stats; st != nil {
		// Snapshot the meter and clock around the dispatch: the delta is the
		// subtree's cumulative work, since children execute inside it.
		var before float64
		if ex.rt.Meter != nil {
			before = ex.rt.Meter.Units()
		}
		start := time.Now()
		rel, err := ex.dispatch(node)
		if err != nil {
			return nil, err
		}
		after := before
		if ex.rt.Meter != nil {
			after = ex.rt.Meter.Units()
		}
		st.nodes[node] = NodeStats{
			Rows:  float64(rel.n),
			Units: after - before,
			Wall:  time.Since(start),
		}
		return rel, nil
	}
	return ex.dispatch(node)
}

func (ex *executor) dispatch(node optimizer.Node) (*relation, error) {
	switch n := node.(type) {
	case *optimizer.Scan:
		return ex.runScan(n)
	case *optimizer.Join:
		return ex.runJoin(n)
	case *optimizer.Materialized:
		return ex.runMaterialized(n)
	default:
		return nil, fmt.Errorf("executor: unknown plan node %T", node)
	}
}

// input runs a join input to completion and checkpoints it.
func (ex *executor) input(node optimizer.Node) (*relation, error) {
	rel, err := ex.run(node)
	if err != nil {
		return nil, err
	}
	return rel, ex.checkpoint(node, rel)
}

// inputs runs both sides of a join, left first.
func (ex *executor) inputs(n *optimizer.Join) (left, right *relation, err error) {
	if left, err = ex.input(n.Left); err == nil {
		right, err = ex.input(n.Right)
	}
	return left, right, err
}

func (ex *executor) baseTable(name string) (*storage.Table, error) {
	tbl, ok := ex.rt.DB.Table(name)
	if !ok {
		return nil, fmt.Errorf("executor: table %q does not exist", name)
	}
	return tbl, nil
}

func (ex *executor) runScan(n *optimizer.Scan) (*relation, error) {
	tbl, err := ex.baseTable(n.Table)
	if err != nil {
		return nil, err
	}
	w := ex.rt.Weights
	// One snapshot serves the whole scan: all morsels see the same table
	// image, and no lock is held while operators run.
	snap := tbl.Snapshot()
	if snap.NumRows() > math.MaxInt32 {
		return nil, fmt.Errorf("executor: %s has %d rows, row positions are int32", n.Table, snap.NumRows())
	}
	var pos []int32
	examined := 0.0

	if n.IndexColumn != "" {
		if err := faultinject.Hit(faultinject.StorageScan); err != nil {
			return nil, fmt.Errorf("executor: scanning %s: %w", n.Table, err)
		}
		ix, ok := ex.rt.Indexes.Find(n.Table, n.IndexColumn)
		if !ok {
			return nil, fmt.Errorf("executor: plan uses missing index %s.%s", n.Table, n.IndexColumn)
		}
		fetched, err := indexPositions(ix, snap, *n.IndexPred)
		if err != nil {
			return nil, err
		}
		ex.rt.charge(w.IndexProbe)
		examined = float64(len(fetched))
		matches := qgm.RowMatcher(n.Preds, snap)
		pos = fetched[:0] // the survivors, compacted in place
		for _, p := range fetched {
			if matches(int(p)) {
				pos = append(pos, p)
			}
		}
		ex.rt.charge(w.IndexRow * examined)
		if err := ex.rt.grow(posBytes * int64(len(pos))); err != nil {
			return nil, fmt.Errorf("executor: scan %s output: %w", n.Table, err)
		}
	} else {
		var scanErr error
		pos, examined, scanErr = ex.seqScan(snap, n.Preds, n.Rows())
		ex.rt.charge(w.SeqRow * examined)
		if scanErr != nil {
			return nil, scanErr
		}
	}
	ex.rt.charge(w.RowOut * float64(len(pos)))

	if len(n.Preds) > 0 {
		ex.actuals = append(ex.actuals, ScanActual{
			Slot: n.Slot, Table: n.Table, Alias: n.Alias,
			BaseRows: float64(snap.NumRows()), Examined: examined, Matched: float64(len(pos)),
			Trace: n.Tr,
		})
	}
	rel := ex.newRelation(len(pos))
	rel.slots[n.Slot] = slotRows{snap, pos}
	return rel, nil
}

// seqScan returns the positions of the snapshot's rows that pass preds, in
// storage order, plus the examined row count (valid on error too). It is
// the scan loop, the only one: each morsel probes the storage.scan fault
// point — so an injected page-read error surfaces from any worker and drains
// the pool — then walks its rows chunk by chunk: cancellation check, the
// compiled predicates over the dense column arrays, the survivors' positions
// charged to the reservation. All morsels share one snapshot, so workers see
// a consistent table image without taking any lock. estRows, the plan's
// estimate of the output, sizes each morsel's buffer so a good estimate
// means no regrowth (a bad one only costs what append costs anyway).
func (ex *executor) seqScan(snap *storage.Snapshot, preds []qgm.Predicate, estRows float64) ([]int32, float64, error) {
	n := snap.NumRows()
	buckets := make([][]int32, ex.rt.morselCount(n))
	var examined atomic.Int64
	err := ex.rt.forMorsels(n, func(m, lo, hi int) (err error) {
		if err := faultinject.Hit(faultinject.StorageScan); err != nil {
			return fmt.Errorf("executor: scanning %s: %w", snap.Name(), err)
		}
		room := float64(hi - lo) // a NaN or runaway estimate falls back to the morsel
		if want := 1.125*estRows*room/float64(max(n, 1)) + 16; want >= 0 && want < room {
			room = want
		}
		out := make([]int32, 0, int(room))
		cnt := 0
		snap.Range(lo, hi, func(ch *storage.Chunk, base, clo, chi int) bool {
			if err = ex.rt.ctxErr(); err != nil {
				return false
			}
			cnt += chi - clo
			before := len(out)
			out = qgm.AppendMatches(out, preds, ch, clo, chi, base)
			if err = ex.rt.grow(posBytes * int64(len(out)-before)); err != nil {
				err = fmt.Errorf("executor: scan %s output: %w", snap.Name(), err)
			}
			return err == nil
		})
		buckets[m] = out
		examined.Add(int64(cnt))
		return err
	})
	return flatten(buckets), float64(examined.Load()), err
}

// indexPositions converts a sargable predicate into an index range scan of
// snap, the table image the scan reads its rows from.
func indexPositions(ix *index.Index, snap *storage.Snapshot, p qgm.Predicate) ([]int32, error) {
	lo, hi := index.Unbounded(), index.Unbounded()
	switch p.Op {
	case qgm.OpEQ:
		return ix.AppendLookupAt(nil, snap, p.Value), nil
	case qgm.OpLT:
		hi = index.Bound{Value: p.Value}
	case qgm.OpLE:
		hi = index.Bound{Value: p.Value, Inclusive: true}
	case qgm.OpGT:
		lo = index.Bound{Value: p.Value}
	case qgm.OpGE:
		lo = index.Bound{Value: p.Value, Inclusive: true}
	case qgm.OpBetween:
		lo, hi = index.Bound{Value: p.Lo, Inclusive: true}, index.Bound{Value: p.Hi, Inclusive: true}
	default:
		return nil, fmt.Errorf("executor: predicate %s is not sargable", p)
	}
	return ix.AppendRangeAt(nil, snap, lo, hi), nil
}

func (ex *executor) runJoin(n *optimizer.Join) (*relation, error) {
	switch n.Method {
	case optimizer.HashJoin:
		return ex.runHashJoin(n)
	case optimizer.IndexNLJoin:
		return ex.runIndexNLJoin(n)
	case optimizer.MergeJoin:
		return ex.runMergeJoin(n)
	case optimizer.NestedLoopJoin:
		return ex.runNestedLoop(n)
	default:
		return nil, fmt.Errorf("executor: unknown join method %v", n.Method)
	}
}

// keyColumns gathers both sides' join-key columns, one vector per join
// predicate and side, and charges them to the reservation; the caller
// returns held bytes when the join is done.
func (ex *executor) keyColumns(n *optimizer.Join, left, right *relation) (lv, rv []*storage.ColumnVec, held int64, err error) {
	held = keyBytes * int64(len(n.Preds)) * int64(left.n+right.n)
	if err := ex.rt.grow(held); err != nil {
		return nil, nil, 0, fmt.Errorf("executor: %v keys: %w", n.Method, err)
	}
	for _, jp := range n.Preds {
		lv = append(lv, left.column(jp.LeftSlot, jp.LeftOrd, 0, left.n))
		rv = append(rv, right.column(jp.RightSlot, jp.RightOrd, 0, right.n))
	}
	return lv, rv, held, nil
}

// joinKeys is one side's join keys as int64s that are equal exactly when the
// keys are; null marks the rows that join nothing (nil when there are none).
type joinKeys struct {
	k    []int64
	null []bool
}

func (jk joinKeys) isNull(i int) bool { return jk.null != nil && jk.null[i] }

// intKeys is the case every paper join takes: an int column is its own key
// (two ints are equal under the order exactly when the int64s are).
func intKeys(vec *storage.ColumnVec) joinKeys {
	jk := joinKeys{k: vec.Ints()}
	if vec.HasNulls() {
		jk.null = make([]bool, len(jk.k))
		for i := range jk.null {
			jk.null[i] = vec.Null(i)
		}
	}
	return jk
}

// encode fills rows [lo, hi) with the id of each row's encoded key: id
// resolves the encoding (interning it on the build side, looking it up on
// the probe side). A NULL key column or an unresolved key is a null.
func (jk joinKeys) encode(vecs []*storage.ColumnVec, lo, hi int, id func(key []byte) (int32, bool)) {
	var kb []byte
	for i := lo; i < hi; i++ {
		var ok bool
		if kb, ok = appendJoinKeyTo(kb[:0], vecs, i); ok {
			var v int32
			v, ok = id(kb)
			jk.k[i] = int64(v)
		}
		jk.null[i] = !ok
	}
}

func (ex *executor) runHashJoin(n *optimizer.Join) (*relation, error) {
	left, right, err := ex.inputs(n)
	if err != nil {
		return nil, err
	}
	w := ex.rt.Weights
	nL, nR := left.n, right.n
	// The build table is per-entry overhead over the gathered keys — charged
	// before building, which is where an under-budgeted join must stop, and
	// returned with the keys when the output positions are all that is left.
	lv, rv, held, err := ex.keyColumns(n, left, right)
	if err != nil {
		return nil, err
	}
	defer func() { ex.rt.shrink(held) }()
	if err := ex.rt.grow(hashEntryBytes * int64(nL)); err != nil {
		return nil, fmt.Errorf("executor: hash join build: %w", err)
	}
	held += hashEntryBytes * int64(nL)

	var lk, rk joinKeys
	if len(lv) == 1 && lv[0].Kind() == value.KindInt && rv[0].Kind() == value.KindInt {
		lk, rk = intKeys(lv[0]), intKeys(rv[0])
	} else {
		// Any other pairing joins on the encoded keys: build-side keys
		// are interned in row order, probe-side keys looked up morsel by morsel
		// in the then read-only table.
		ids := newKeyTable()
		lk = joinKeys{k: make([]int64, nL), null: make([]bool, nL)}
		lk.encode(lv, 0, nL, func(key []byte) (int32, bool) {
			id, _ := ids.intern(key)
			return id, true
		})
		rk = joinKeys{k: make([]int64, nR), null: make([]bool, nR)}
		if err := ex.rt.forMorsels(nR, func(_, lo, hi int) error {
			rk.encode(rv, lo, hi, ids.find)
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Build: the table is split by key hash into one partition per worker
	// the build side can keep busy (a single partition computes no hash), one
	// morsel per partition. A partition maps a key to its first left row;
	// next chains the rest. Walking the left side backwards leaves every
	// chain in left-row order.
	parts := min(ex.rt.morselCount(nL), ex.rt.dop())
	partOf := func(k int64) int {
		if parts == 1 {
			return 0
		}
		return int(uint64(k) * 0x9E3779B97F4A7C15 >> 33 % uint64(parts))
	}
	next := make([]int32, nL)
	heads := make([]map[int64]int32, parts)
	if err := ex.rt.runMorsels(parts, 1, func(p, _, _ int) error {
		head := make(map[int64]int32, nL/parts)
		for i := nL - 1; i >= 0; i-- {
			k := lk.k[i]
			if lk.isNull(i) || partOf(k) != p {
				continue
			}
			if h, ok := head[k]; ok {
				next[i] = h
			} else {
				next[i] = -1
			}
			head[k] = int32(i)
		}
		heads[p] = head
		return nil
	}); err != nil {
		return nil, err
	}

	// Probe: right-side morsels look keys up in the now read-only partitions
	// and emit (left row, right row) pairs.
	lb := make([][]int32, ex.rt.morselCount(nR))
	rb := make([][]int32, len(lb))
	if err := ex.rt.forMorsels(nR, func(m, lo, hi int) error {
		var li, ri []int32
		for j := lo; j < hi; j++ {
			if rk.isNull(j) {
				continue
			}
			if h, ok := heads[partOf(rk.k[j])][rk.k[j]]; ok {
				for ; h >= 0; h = next[h] {
					li, ri = append(li, h), append(ri, int32(j))
				}
			}
		}
		lb[m], rb[m] = li, ri
		return nil
	}); err != nil {
		return nil, err
	}
	li, ri := flatten(lb), flatten(rb)

	ex.rt.charge(w.HashBuild * float64(nL))
	ex.rt.charge(w.HashProbe * float64(nR))
	ex.rt.charge(w.RowOut * float64(len(li)))
	return ex.joined("hash join", left, right, li, ri)
}

func (ex *executor) runIndexNLJoin(n *optimizer.Join) (*relation, error) {
	inner, ok := n.Right.(*optimizer.Scan)
	if !ok {
		return nil, fmt.Errorf("executor: index NL join requires a scan inner, got %T", n.Right)
	}
	left, err := ex.input(n.Left)
	if err != nil {
		return nil, err
	}
	tbl, err := ex.baseTable(inner.Table)
	if err != nil {
		return nil, err
	}
	w := ex.rt.Weights
	// One snapshot serves every probe into the inner table.
	snap := tbl.Snapshot()

	// The driving predicate is the first join predicate with an index on
	// the inner column; the rest are residual filters.
	driving := -1
	var ix *index.Index
	for i, jp := range n.Preds {
		if jp.RightSlot != inner.Slot {
			continue
		}
		if found, ok := ex.rt.Indexes.Find(inner.Table, jp.RightCol); ok {
			driving, ix = i, found
			break
		}
	}
	if driving < 0 {
		return nil, fmt.Errorf("executor: no usable index for NL join into %s", inner.Table)
	}
	held := keyBytes * int64(len(n.Preds)) * int64(left.n)
	if err := ex.rt.grow(held); err != nil {
		return nil, fmt.Errorf("executor: index NL join keys: %w", err)
	}
	defer ex.rt.shrink(held)
	lv := make([]*storage.ColumnVec, len(n.Preds))
	for i, jp := range n.Preds {
		lv[i] = left.column(jp.LeftSlot, jp.LeftOrd, 0, left.n)
	}

	// Probe: left-row morsels look their key up in the index and test the
	// inner rows in place in the shared snapshot, a consistent image read
	// lock-free. The probe is charged row by row: every addend is the same,
	// so the meter's float total is the same under any partition and
	// interleaving.
	lb := make([][]int32, ex.rt.morselCount(left.n))
	ib := make([][]int32, len(lb))
	var examinedN, matchedN atomic.Int64
	if err := ex.rt.forMorsels(left.n, func(m, lo, hi int) error {
		var li, ip, probe []int32
		exam, match := 0, 0
		matches := qgm.RowMatcher(inner.Preds, snap)
		for i := lo; i < hi; i++ {
			ex.rt.charge(w.IndexProbe)
			probe = ix.AppendLookupAt(probe[:0], snap, lv[driving].Datum(i))
		fetch:
			for _, pos := range probe {
				exam++
				if !matches(int(pos)) {
					continue
				}
				match++
				for r, jp := range n.Preds { // residual join predicates
					if r != driving && !lv[r].Datum(i).Equal(snap.Datum(int(pos), jp.RightOrd)) {
						continue fetch
					}
				}
				li, ip = append(li, int32(i)), append(ip, pos)
			}
		}
		lb[m], ib[m] = li, ip
		examinedN.Add(int64(exam))
		matchedN.Add(int64(match))
		return nil
	}); err != nil {
		return nil, err
	}
	li := flatten(lb)
	fetched := ex.newRelation(len(li))
	fetched.slots[inner.Slot] = slotRows{snap, flatten(ib)}
	examined, matched := float64(examinedN.Load()), float64(matchedN.Load())
	ex.rt.charge(w.IndexRow * examined)
	ex.rt.charge(w.RowOut * float64(len(li)))

	if len(inner.Preds) > 0 {
		ex.actuals = append(ex.actuals, ScanActual{
			Slot: inner.Slot, Table: inner.Table, Alias: inner.Alias,
			BaseRows: float64(snap.NumRows()), Examined: examined, Matched: matched,
			Conditioned: true,
			Trace:       inner.Tr,
		})
	}
	return ex.joined("index NL join", left, fetched, li, nil)
}

// compareKeys orders row i of a against row j of b by their key columns.
func compareKeys(a []*storage.ColumnVec, i int32, b []*storage.ColumnVec, j int32) int {
	for k := range a {
		if c := a[k].Datum(int(i)).Compare(b[k].Datum(int(j))); c != 0 {
			return c
		}
	}
	return 0
}

// keyedRows lists the rows whose key columns are all non-NULL (NULL joins
// nothing), in row order.
func keyedRows(vecs []*storage.ColumnVec, n int) []int32 {
	rows := make([]int32, 0, n)
rows:
	for i := 0; i < n; i++ {
		for _, v := range vecs {
			if v.Null(i) {
				continue rows
			}
		}
		rows = append(rows, int32(i))
	}
	return rows
}

func (ex *executor) runMergeJoin(n *optimizer.Join) (*relation, error) {
	left, right, err := ex.inputs(n)
	if err != nil {
		return nil, err
	}
	w := ex.rt.Weights
	lv, rv, held, err := ex.keyColumns(n, left, right)
	if err != nil {
		return nil, err
	}
	defer func() { ex.rt.shrink(held) }()

	// Drop NULL-key rows, then sort both sides' row lists; they are charged
	// before sorting and stay charged while the merge reads them.
	lRows, rRows := keyedRows(lv, left.n), keyedRows(rv, right.n)
	sorted := posBytes * int64(len(lRows)+len(rRows))
	if err := ex.rt.grow(sorted); err != nil {
		return nil, fmt.Errorf("executor: merge join sort: %w", err)
	}
	held += sorted
	sortCharge := func(n int) {
		if n > 1 {
			ex.rt.charge(w.SortRow * float64(n) * math.Log2(float64(n)))
		}
	}
	sortCharge(len(lRows))
	sortCharge(len(rRows))
	sort.SliceStable(lRows, func(i, j int) bool { return compareKeys(lv, lRows[i], lv, lRows[j]) < 0 })
	sort.SliceStable(rRows, func(i, j int) bool { return compareKeys(rv, rRows[i], rv, rRows[j]) < 0 })

	// Merge: advance groups of equal keys and emit the cross product of
	// each matching group pair.
	var li, ri []int32
	l, r := 0, 0
	for l < len(lRows) && r < len(rRows) {
		c := compareKeys(lv, lRows[l], rv, rRows[r])
		switch {
		case c < 0:
			l++
		case c > 0:
			r++
		default:
			lEnd := l + 1
			for lEnd < len(lRows) && compareKeys(lv, lRows[lEnd], lv, lRows[l]) == 0 {
				lEnd++
			}
			rEnd := r + 1
			for rEnd < len(rRows) && compareKeys(rv, rRows[rEnd], rv, rRows[r]) == 0 {
				rEnd++
			}
			for _, i := range lRows[l:lEnd] {
				for _, j := range rRows[r:rEnd] {
					li, ri = append(li, i), append(ri, j)
				}
			}
			l, r = lEnd, rEnd
		}
	}
	ex.rt.charge(w.SeqRow * float64(len(lRows)+len(rRows)))
	ex.rt.charge(w.RowOut * float64(len(li)))
	return ex.joined("merge join", left, right, li, ri)
}

func (ex *executor) runNestedLoop(n *optimizer.Join) (*relation, error) {
	left, right, err := ex.inputs(n)
	if err != nil {
		return nil, err
	}
	w := ex.rt.Weights
	lv, rv, held, err := ex.keyColumns(n, left, right)
	if err != nil {
		return nil, err
	}
	defer ex.rt.shrink(held)
	var li, ri []int32
	lkey := make([]value.Datum, len(lv))
	for i := 0; i < left.n; i++ {
		for k := range lv {
			lkey[k] = lv[k].Datum(i)
		}
	pairs:
		for j := 0; j < right.n; j++ {
			for k := range rv {
				if !lkey[k].Equal(rv[k].Datum(j)) {
					continue pairs
				}
			}
			li, ri = append(li, int32(i)), append(ri, int32(j))
		}
	}
	ex.rt.charge(w.HashProbe * float64(left.n) * float64(right.n))
	ex.rt.charge(w.RowOut * float64(len(li)))
	return ex.joined("nested loop", left, right, li, ri)
}

// --- finishing: aggregation, distinct, order, limit, projection ----------

// column is one output or sort-key column: a table column seen through the
// relation's row positions, or the datums aggregation produced.
type column interface{ Datum(i int) value.Datum }

type datums []value.Datum

func (d datums) Datum(i int) value.Datum { return d[i] }

// rowsColumn is one column of a relation slot, read in place: finishing
// touches each value a handful of times at most, so it gathers nothing.
type rowsColumn struct {
	slotRows
	ordinal int
}

func (c rowsColumn) Datum(i int) value.Datum { return c.snap.Datum(int(c.pos[i]), c.ordinal) }

// finish turns the plan's relation into the result. Projection and
// aggregation produce columns, and beside them the key columns of the ORDER
// BY entries; DISTINCT, ORDER BY and LIMIT then work on row numbers alone.
// The result is those columns and the rows that survived: its cells are
// reserved here, at what they cost boxed, whether or not the caller ever
// boxes them — a memory budget refuses the same statements whichever way the
// result leaves.
func (ex *executor) finish(rel *relation) (*Columnar, error) {
	blk := ex.blk
	var out *Columnar
	var keys []column
	var err error
	if blk.Aggregated() {
		out, keys, err = ex.aggregate(rel)
	} else {
		out, keys, err = ex.project(rel)
	}
	if err != nil {
		return nil, err
	}
	if blk.Distinct {
		out.rows = distinctRows(out)
	}
	if len(blk.OrderBy) > 0 {
		if out.rows, err = ex.orderRows(out, keys); err != nil {
			return nil, err
		}
	}
	if out.rows != nil {
		out.n = len(out.rows)
	}
	if blk.Limit >= 0 && out.n > blk.Limit {
		out.n = blk.Limit
	}
	if err := ex.rt.grow(int64(out.n) * govern.EstimateRowBytes(len(out.cols))); err != nil {
		return nil, fmt.Errorf("executor: result: %w", err)
	}
	return out, nil
}

// project lists the non-aggregated projection's columns and the ORDER BY
// key columns: an alias key is the output column of that name, a base-column
// key is read beside the projection and never becomes a result column. A
// LIMIT with no DISTINCT or ORDER BY above it cuts the relation first.
func (ex *executor) project(rel *relation) (*Columnar, []column, error) {
	blk := ex.blk
	out := &Columnar{n: rel.n}
	if blk.Limit >= 0 && blk.Limit < rel.n && !blk.Distinct && len(blk.OrderBy) == 0 {
		out.n = blk.Limit
	}
	out.Names = make([]string, 0, len(blk.Projections))
	out.cols = make([]column, 0, len(blk.Projections))
	add := func(name string, slot, ordinal int) {
		out.Names = append(out.Names, name)
		out.cols = append(out.cols, rowsColumn{rel.slots[slot], ordinal})
	}
	for _, p := range blk.Projections {
		if !p.Star {
			add(p.Alias, p.Slot, p.Ordinal)
			continue
		}
		for slot, ti := range blk.Tables {
			for o := 0; o < ti.Schema.NumColumns(); o++ {
				add(ti.Alias+"."+ti.Schema.Column(o).Name, slot, o)
			}
		}
	}
	var keys []column
	for _, ok := range blk.OrderBy {
		if ok.ByAlias == "" {
			keys = append(keys, rowsColumn{rel.slots[ok.Slot], ok.Ordinal})
		} else if ci := slices.Index(out.Names, ok.ByAlias); ci >= 0 {
			keys = append(keys, out.cols[ci])
		} else {
			return nil, nil, fmt.Errorf("executor: ORDER BY alias %q not found", ok.ByAlias)
		}
	}
	return out, keys, nil
}

type aggState struct {
	count    int64
	countCol int64
	sum      float64
	sumIsInt bool
	sumInt   int64
	min, max value.Datum
	seen     bool
}

// merge folds another partial state for the same group and projection into
// st; mergeFrom combines per-morsel partials with it.
func (st *aggState) merge(other *aggState) {
	st.count += other.count
	st.countCol += other.countCol
	st.sum += other.sum
	st.sumInt += other.sumInt
	st.sumIsInt = st.sumIsInt && other.sumIsInt
	st.seen = st.seen || other.seen
	if !other.min.IsNull() && (st.min.IsNull() || other.min.Compare(st.min) < 0) {
		st.min = other.min
	}
	if !other.max.IsNull() && (st.max.IsNull() || other.max.Compare(st.max) > 0) {
		st.max = other.max
	}
}

type group struct {
	keys []value.Datum
	aggs []aggState
}

func newGroup(keys []value.Datum, projections int) group {
	g := group{keys: keys, aggs: make([]aggState, projections)}
	for i := range g.aggs {
		g.aggs[i].sumIsInt = true
	}
	return g
}

// groupAccumulator builds grouped aggregation state, one accumulator per
// morsel, merged in morsel order (mergePartials). Groups are numbered in
// order of first appearance by the table their encoded keys intern into.
type groupAccumulator struct {
	blk    *qgm.Block
	ids    *keyTable
	groups []group
}

func newGroupAccumulator(blk *qgm.Block) *groupAccumulator {
	return &groupAccumulator{blk: blk, ids: newKeyTable()}
}

// absorb folds relation rows [lo, hi) into the accumulator, reading only
// the grouping and aggregate-argument columns, gathered for this range. A
// row's group key is encoded straight off the vectors; its datums are built
// only when the group is new.
func (ga *groupAccumulator) absorb(rel *relation, lo, hi int) {
	blk := ga.blk
	keys := make([]*storage.ColumnVec, len(blk.GroupBy))
	for i, gk := range blk.GroupBy {
		keys[i] = rel.column(gk.Slot, gk.Ordinal, lo, hi)
	}
	args := make([]*storage.ColumnVec, len(blk.Projections))
	for i, p := range blk.Projections {
		if p.Agg != sqlparser.AggNone && !p.Star {
			args[i] = rel.column(p.Slot, p.Ordinal, lo, hi)
		}
	}
	var kb []byte
	for i := 0; i < hi-lo; i++ {
		kb = kb[:0]
		for _, kv := range keys {
			kb = kv.Datum(i).Key().AppendTo(kb)
		}
		id, fresh := ga.ids.intern(kb)
		if fresh {
			gk := make([]value.Datum, len(keys))
			for k, kv := range keys {
				gk[k] = kv.Datum(i)
			}
			ga.groups = append(ga.groups, newGroup(gk, len(args)))
		}
		aggs := ga.groups[id].aggs
		for p, arg := range args {
			st := &aggs[p]
			st.count++
			if arg == nil || arg.Null(i) {
				continue
			}
			d := arg.Datum(i)
			st.countCol++
			st.seen = true
			if f, ok := d.AsFloat(); ok {
				st.sum += f
				if d.Kind() == value.KindInt {
					st.sumInt += d.Int()
				} else {
					st.sumIsInt = false
				}
			} else {
				st.sumIsInt = false
			}
			if st.min.IsNull() || d.Compare(st.min) < 0 {
				st.min = d
			}
			if st.max.IsNull() || d.Compare(st.max) > 0 {
				st.max = d
			}
		}
	}
}

// mergeFrom folds a later partial accumulator into ga, keeping first-
// appearance order: groups ga already holds merge state-wise, new groups
// append in the partial's own order.
func (ga *groupAccumulator) mergeFrom(other *groupAccumulator) {
	for oid, key := range other.ids.keys {
		id, fresh := ga.ids.internString(key)
		if fresh {
			ga.groups = append(ga.groups, other.groups[oid])
			continue
		}
		for i := range ga.groups[id].aggs {
			ga.groups[id].aggs[i].merge(&other.groups[oid].aggs[i])
		}
	}
}

// mergePartials folds per-morsel accumulators in morsel order, reproducing
// the first-appearance group order and the integer aggregates of a single
// accumulator over the whole input exactly; float SUM/AVG may differ by
// rounding since partial sums associate differently. A single morsel's
// accumulator is returned as is.
func mergePartials(partials []*groupAccumulator) *groupAccumulator {
	out := partials[0]
	for _, p := range partials[1:] {
		out.mergeFrom(p)
	}
	return out
}

// aggregate groups the relation morsel by morsel and turns the merged group
// state into output columns, one row per group in first-appearance order.
func (ex *executor) aggregate(rel *relation) (*Columnar, []column, error) {
	blk := ex.blk
	partials := make([]*groupAccumulator, ex.rt.morselCount(rel.n))
	if err := ex.rt.forMorsels(rel.n, func(m, lo, hi int) error {
		partials[m] = newGroupAccumulator(blk)
		partials[m].absorb(rel, lo, hi)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	groups := mergePartials(partials).groups
	ex.rt.charge(ex.rt.Weights.HashBuild * float64(rel.n))
	// Aggregation state is charged after accumulation (operator-boundary
	// enforcement: growth past the budget is bounded to this operator's
	// grouped state, which is what the statement materializes from here on).
	if err := ex.rt.grow(int64(len(groups)) * (64 + 96*int64(len(blk.Projections)))); err != nil {
		return nil, nil, fmt.Errorf("executor: aggregation state: %w", err)
	}
	// Global aggregate over empty input still yields one row.
	if len(groups) == 0 && len(blk.GroupBy) == 0 {
		groups = []group{{aggs: make([]aggState, len(blk.Projections))}}
	}

	out := &Columnar{n: len(groups)}
	for i, p := range blk.Projections {
		col := make(datums, len(groups))
		grouped := slices.IndexFunc(blk.GroupBy, func(gk qgm.GroupKey) bool {
			return gk.Slot == p.Slot && gk.Ordinal == p.Ordinal
		})
		if p.Agg == sqlparser.AggNone && grouped < 0 {
			return nil, nil, fmt.Errorf("executor: projection %q is not grouped", p.Alias)
		}
		for r := range groups {
			st := &groups[r].aggs[i]
			switch {
			case p.Agg == sqlparser.AggNone:
				col[r] = groups[r].keys[grouped]
			case p.Agg == sqlparser.AggCount && p.Star:
				col[r] = value.NewInt(st.count)
			case p.Agg == sqlparser.AggCount:
				col[r] = value.NewInt(st.countCol)
			case st.countCol == 0: // SUM/AVG/MIN/MAX of no value
			case p.Agg == sqlparser.AggSum && st.sumIsInt:
				col[r] = value.NewInt(st.sumInt)
			case p.Agg == sqlparser.AggSum:
				col[r] = value.NewFloat(st.sum)
			case p.Agg == sqlparser.AggAvg:
				col[r] = value.NewFloat(st.sum / float64(st.countCol))
			case p.Agg == sqlparser.AggMin:
				col[r] = st.min
			case p.Agg == sqlparser.AggMax:
				col[r] = st.max
			}
		}
		out.Names, out.cols = append(out.Names, p.Alias), append(out.cols, col)
	}
	// ORDER BY over an aggregate: an alias key is that output column, a
	// base-column key must be a grouped, projected column.
	var keys []column
	for _, ok := range blk.OrderBy {
		ci := slices.Index(out.Names, ok.ByAlias)
		if ok.ByAlias == "" {
			ci = slices.IndexFunc(blk.Projections, func(p qgm.Projection) bool {
				return p.Agg == sqlparser.AggNone && p.Slot == ok.Slot && p.Ordinal == ok.Ordinal
			})
			if ci < 0 {
				return nil, nil, fmt.Errorf("executor: ORDER BY column is neither projected nor grouped")
			}
		} else if ci < 0 {
			return nil, nil, fmt.Errorf("executor: ORDER BY alias %q not found", ok.ByAlias)
		}
		keys = append(keys, out.cols[ci])
	}
	return out, keys, nil
}

// distinctRows lists the first row of every distinct combination of output
// values, in row order.
func distinctRows(out *Columnar) []int32 {
	seen := newKeyTable()
	rows := make([]int32, 0, out.n)
	var kb []byte
	for i := 0; i < out.n; i++ {
		kb = kb[:0]
		for _, col := range out.cols {
			kb = col.Datum(i).Key().AppendTo(kb)
		}
		if _, fresh := seen.intern(kb); fresh {
			rows = append(rows, int32(i))
		}
	}
	return rows
}

// orderRows stably sorts the chosen rows (nil = all) by the ORDER BY keys.
func (ex *executor) orderRows(out *Columnar, keys []column) ([]int32, error) {
	rows := out.rows
	if rows == nil {
		rows = make([]int32, out.n)
		for i := range rows {
			rows[i] = int32(i)
		}
	}
	if n := len(rows); n > 1 {
		ex.rt.charge(ex.rt.Weights.SortRow * float64(n) * math.Log2(float64(n)))
	}
	// The row list is what the sort holds; it is the statement's from here on.
	if err := ex.rt.grow(posBytes * int64(len(rows))); err != nil {
		return nil, fmt.Errorf("executor: ORDER BY sort: %w", err)
	}
	orderBy := ex.blk.OrderBy
	err := parallelStableSort(ex.rt, rows, func(a, b int32) bool {
		for k, key := range keys {
			if c := key.Datum(int(a)).Compare(key.Datum(int(b))); c != 0 {
				return (c > 0) == orderBy[k].Desc
			}
		}
		return false
	})
	return rows, err
}
