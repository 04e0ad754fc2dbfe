package executor

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/flightrec"
	"repro/internal/optimizer"
)

// Mid-query re-optimization (ROADMAP: "mid-query re-optimization ... at
// pipeline breakers"). Every join input in this executor runs to completion
// before the join consumes it — a natural checkpoint. When a Runtime
// carries a ReoptState, each checkpoint (a) registers the input's relation
// (snapshots + row positions, the representation every operator consumes, so
// it pins exactly the table images it was read from and a re-planned attempt
// reads the same rows whatever DML landed in between) so a later re-plan can
// reuse it as an exact-cardinality leaf,
// and (b) compares the subtree's observed cardinality against the plan's
// estimate. If the q-error exceeds the configured threshold, execution
// unwinds with a *ReoptTriggered error; the engine re-enters the optimizer
// over the unexecuted remainder (optimizer.ReOptimize) and re-runs the
// spliced plan against the same state, which resolves Materialized leaves
// to the stored relations instead of re-executing their subtrees.

// ReoptTriggered is the control-flow error a checkpoint returns when the
// observed cardinality justifies re-planning. It unwinds the executor's
// recursion cleanly (Execute's panic guard only intercepts panics); the
// engine recognizes it with errors.As and re-plans rather than failing the
// statement.
type ReoptTriggered struct {
	NodeDesc string  // label of the operator whose estimate was wrong
	EstRows  float64 // the plan's estimate
	ActRows  float64 // what materialization actually produced
	QError   float64 // max(est,act)/max(1,min(est,act))
	Cause    string  // "scan" or "join" — the metrics label
}

func (e *ReoptTriggered) Error() string {
	return fmt.Sprintf("executor: reopt triggered at %s: est=%.1f act=%.1f qerror=%.1f",
		e.NodeDesc, e.EstRows, e.ActRows, e.QError)
}

// matEntry is one checkpointed intermediate: the relation of a fully-
// executed subtree, keyed by the (sorted) slot set it covers.
type matEntry struct {
	id      int
	slots   []int
	desc    string
	rel     *relation
	actRows float64
}

// ReoptState carries re-optimization state across execution attempts of one
// statement. The engine creates it per statement when Config.Reopt is
// enabled; the executor registers checkpoints into it and the optimizer's
// re-planning consumes its Leaves(). It is used by the single driver
// goroutine only (morsel workers never touch it), so it needs no locking.
type ReoptState struct {
	threshold float64
	remaining int
	disabled  bool

	entries map[string]*matEntry
	order   []string // registration order, for deterministic tie-breaks
	rels    map[int]*relation
	nextID  int

	// captured accumulates the ScanActuals of subtrees that triggered
	// attempts already executed: those subtrees never re-run, so their
	// feedback would be lost without this. Disjoint from the final
	// attempt's actuals by construction.
	captured []ScanActual

	checkpoints int64
}

// NewReoptState arms re-optimization with the given q-error threshold and
// attempt budget.
func NewReoptState(threshold float64, maxReopts int) *ReoptState {
	return &ReoptState{
		threshold: threshold,
		remaining: maxReopts,
		entries:   make(map[string]*matEntry),
		rels:      make(map[int]*relation),
	}
}

// Checkpoints reports how many pipeline-breaker checkpoints were evaluated.
func (s *ReoptState) Checkpoints() int64 { return s.checkpoints }

// CapturedActuals returns the scan feedback captured from superseded
// execution attempts; the engine merges it with the final attempt's actuals
// before running the feedback loop.
func (s *ReoptState) CapturedActuals() []ScanActual { return s.captured }

// DisableTriggers stops further re-planning (the engine calls it when
// ReOptimize itself fails, so the current plan can run to completion).
func (s *ReoptState) DisableTriggers() { s.disabled = true }

// describer is satisfied by every concrete plan node.
type describer interface{ Describe() string }

func describeNode(n optimizer.Node) string {
	if d, ok := n.(describer); ok {
		return d.Describe()
	}
	return fmt.Sprintf("%T", n)
}

func slotKey(slots []int) string {
	b := make([]byte, 0, 4*len(slots))
	for _, s := range slots {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
	}
	return string(b)
}

// checkpoint is called by the join runners after each input materializes.
// A nil state (re-optimization off) and Materialized leaves (exact by
// construction, q-error 1) cost a pointer check.
func (ex *executor) checkpoint(node optimizer.Node, rel *relation) error {
	s := ex.rt.Reopt
	if s == nil {
		return nil
	}
	if _, ok := node.(*optimizer.Materialized); ok {
		return nil
	}
	return s.observe(ex, node, rel)
}

func (s *ReoptState) observe(ex *executor, node optimizer.Node, rel *relation) error {
	s.checkpoints++

	// Register (or refresh) the materialized intermediate under its slot
	// set. Re-registration after a failed re-plan keeps the original ID so
	// outstanding Materialized leaves stay resolvable.
	slots := append([]int(nil), node.Slots()...)
	sort.Ints(slots)
	key := slotKey(slots)
	e, ok := s.entries[key]
	if !ok {
		e = &matEntry{id: s.nextID, slots: slots}
		s.nextID++
		s.entries[key] = e
		s.order = append(s.order, key)
	}
	e.desc = describeNode(node)
	e.rel = rel
	e.actRows = float64(rel.n)
	s.rels[e.id] = rel

	if s.disabled || s.remaining <= 0 {
		return nil
	}
	est, act := node.Rows(), float64(rel.n)
	q := flightrec.QError(est, act)
	if q <= s.threshold {
		return nil
	}
	s.remaining--
	// Move this attempt's scan feedback into the state: every subtree that
	// produced it is now registered here and will never re-execute.
	s.captured = append(s.captured, ex.actuals...)
	ex.actuals = nil
	cause := "join"
	if _, ok := node.(*optimizer.Scan); ok {
		cause = "scan"
	}
	return &ReoptTriggered{
		NodeDesc: describeNode(node),
		EstRows:  est, ActRows: act, QError: q, Cause: cause,
	}
}

// Leaves returns the maximal disjoint cover of checkpointed intermediates
// as optimizer leaves: entries ordered by slot-set size (largest first,
// registration order breaking ties), greedily taken while disjoint. Larger
// sets subsume the checkpoints of their own subtrees, so the re-planned
// tree reuses as much completed work as possible.
func (s *ReoptState) Leaves() []*optimizer.Materialized {
	keys := append([]string(nil), s.order...)
	sort.SliceStable(keys, func(i, j int) bool {
		return len(s.entries[keys[i]].slots) > len(s.entries[keys[j]].slots)
	})
	covered := make(map[int]bool)
	var out []*optimizer.Materialized
	for _, k := range keys {
		e := s.entries[k]
		overlap := false
		for _, sl := range e.slots {
			if covered[sl] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for _, sl := range e.slots {
			covered[sl] = true
		}
		out = append(out, &optimizer.Materialized{
			ID: e.id, SlotList: e.slots, Desc: e.desc, ActRows: e.actRows,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SlotList[0] < out[j].SlotList[0] })
	return out
}

// runMaterialized resolves a re-planned leaf to its stored relation. The
// subtree's work is sunk: no meter charge, no reservation growth — both
// were paid when the original attempt materialized it.
func (ex *executor) runMaterialized(n *optimizer.Materialized) (*relation, error) {
	s := ex.rt.Reopt
	if s == nil {
		return nil, fmt.Errorf("executor: materialized leaf #%d without reopt state", n.ID)
	}
	rel, ok := s.rels[n.ID]
	if !ok || rel == nil {
		return nil, fmt.Errorf("executor: materialized leaf #%d has no stored relation", n.ID)
	}
	return rel, nil
}
