// Package feedback is the engine's one feedback store. After a query
// executes, the engine compares the optimizer's estimated selectivity of each
// table's predicate group with the actual selectivity observed at run time
// (LEO's monitoring) and hands the pairs to Store.Observe; the JITS collect
// stage reports each archive merge of a column group to Store.ObserveMerge,
// and every write its changed rows to Store.RecordChurn.
//
// The store keys on the column group estimated (a qgm.StatName, which names
// its table). Each entry holds two accounts of the same stream:
//
//   - the paper's StatHistory rows for the group, Table 1's (T, colgrp,
//     statlist, count, errorFactor): statlist is the set of statistics the
//     optimizer combined to produce the estimate (e.g. two 1-D histograms
//     under the independence assumption) and errorFactor = estimated/actual,
//     exponentially averaged. The JITS sensitivity analysis reads them:
//     Algorithm 3 the rows *for* a column group, to score how well existing
//     statistics predict it, and Algorithm 4 the rows *using* a statistic, to
//     score how useful materializing it has been;
//   - the group's drift account (drift.go): decayed q-error, DML churn, merges
//     and a CUSUM detector that moves the group through fresh → aging →
//     drifted. SHOW ACCURACY, SHOW DRIFT and /debug/accuracy read it.
//
// Time is the engine's logical clock (one tick per statement), passed with
// every event; there is no wall clock in the store, so drift is deterministic.
package feedback

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/qgm"
)

// ewmaAlpha is the weight of the newest observation when a row's error
// factor is updated; older history decays geometrically.
const ewmaAlpha = 0.5

// Observation is one post-execution comparison of estimated and actual
// selectivity for a table's local predicate group — what LEO's monitoring
// delivers. Observe fills in ErrorFactor.
type Observation struct {
	Table       string         // the scanned table; ColGrp names it too, and the store files by ColGrp
	ColGrp      qgm.StatName   // the column group estimated; zero: nothing to file
	StatList    []qgm.StatName // the statistics the estimate used, in any order
	EstSel      float64
	ActualSel   float64
	BaseCard    int64
	ErrorFactor float64 // ErrorFactor(EstSel, ActualSel, BaseCard), set by Observe
}

// Entry is one StatHistory row of a column group.
type Entry struct {
	StatList    []qgm.StatName // the statistics used, ordered by name
	Count       int64          // times this statlist estimated the group
	ErrorFactor float64        // estimated/actual, exponentially averaged
}

// Accuracy converts an error factor into the paper's [0,1] accuracy scale:
// overestimating by 2× and underestimating by 2× are equally inaccurate, so
// the score is min(ef, 1/ef) — symmetric under inversion, Accuracy(ef) ==
// Accuracy(1/ef). A perfect estimate scores 1. Non-positive and NaN inputs
// (no information) score 0; ±Inf scores 0 by the same min rule.
func Accuracy(errorFactor float64) float64 {
	if math.IsNaN(errorFactor) || errorFactor <= 0 {
		return 0
	}
	if errorFactor > 1 {
		return 1 / errorFactor
	}
	return errorFactor
}

// row is an Entry with its statlist's "|"-joined text, which orders the rows
// of a group and Algorithm 4's sum.
type row struct {
	Entry
	stats string
}

// group is one column group's entry: its StatHistory rows, ordered by
// statlist text, and its drift account.
type group struct {
	rows []row
	drift
}

// Store is the feedback store. Safe for concurrent use.
type Store struct {
	bounds       []float64 // the error-factor histograms' bounds (shared, read-only)
	errorFactors *metrics.Histogram

	mu     sync.RWMutex
	groups map[qgm.StatName]*group
	total  int64 // Σ count — the F of Algorithm 4, and the observations recorded
	// Totals since construction: merge events, DML rows charged, and drift
	// transitions by destination state.
	merges, churnRows int64
	transitions       [StateDrifted + 1]int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	bounds := metrics.ErrorFactorBuckets()
	return &Store{
		bounds:       bounds,
		errorFactors: metrics.NewHistogram(bounds),
		groups:       make(map[qgm.StatName]*group),
	}
}

// entry returns colgrp's entry, creating it fresh and merged "now". Caller
// holds s.mu.
func (s *Store) entry(ts int64, colgrp qgm.StatName) *group {
	g, ok := s.groups[colgrp]
	if !ok {
		g = &group{drift: drift{lastMerge: ts, lastObserved: ts, hist: make([]uint64, len(s.bounds)+1)}}
		s.groups[colgrp] = g
	}
	return g
}

// Observe records one statement's observations at logical time ts: it
// computes each error factor once, and files it under its column group in
// both accounts and in the feedback_error_factor histogram. It returns the
// transitions to drifted the observations caused, for the statement's flight
// record; nil when there are none.
func (s *Store) Observe(ts int64, obs []Observation) []Transition {
	var trs []Transition
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range obs {
		o := &obs[i]
		o.ErrorFactor = ErrorFactor(o.EstSel, o.ActualSel, o.BaseCard)
		if o.ColGrp.IsZero() {
			continue
		}
		s.errorFactors.Observe(o.ErrorFactor)
		g := s.entry(ts, o.ColGrp)
		r := g.row(o.StatList)
		if r.Count == 0 {
			r.ErrorFactor = o.ErrorFactor
		} else {
			r.ErrorFactor = (1-ewmaAlpha)*r.ErrorFactor + ewmaAlpha*o.ErrorFactor
		}
		r.Count++
		s.total++
		if tr, ok := s.observeDrift(ts, o.ColGrp, g, o.ErrorFactor, o.BaseCard); ok {
			trs = append(trs, tr)
		}
	}
	return trs
}

// row returns the group's row for statlist, in any order, adding it (count
// 0) when the group has none.
func (g *group) row(statlist []qgm.StatName) *row {
	var buf [8]qgm.StatName
	sorted := statlist
	if !slices.IsSortedFunc(statlist, qgm.StatName.Compare) {
		sorted = append(buf[:0], statlist...)
		slices.SortFunc(sorted, qgm.StatName.Compare)
	}
	for i := range g.rows {
		if slices.Equal(g.rows[i].StatList, sorted) {
			return &g.rows[i]
		}
	}
	r := row{Entry: Entry{StatList: slices.Clone(sorted)}}
	r.stats = joinStats(r.StatList)
	i := sort.Search(len(g.rows), func(i int) bool { return g.rows[i].stats >= r.stats })
	g.rows = slices.Insert(g.rows, i, r)
	return &g.rows[i]
}

func joinStats(statlist []qgm.StatName) string {
	var b strings.Builder
	for i, n := range statlist {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(n.String())
	}
	return b.String()
}

// For returns copies of colgrp's rows — the H set of Algorithm 3 — ordered
// by statlist.
func (s *Store) For(colgrp qgm.StatName) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g := s.groups[colgrp]
	if g == nil {
		return nil
	}
	out := make([]Entry, len(g.rows))
	for i, r := range g.rows {
		out[i] = r.Entry
		out[i].StatList = slices.Clone(r.StatList)
	}
	return out
}

// Observed reports whether colgrp has StatHistory rows: whether it has been
// an estimation target, as opposed to only merged.
func (s *Store) Observed(colgrp qgm.StatName) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g := s.groups[colgrp]
	return g != nil && len(g.rows) > 0
}

// Using returns copies of the rows whose statlist contains stat — the H set
// of Algorithm 4 — ordered by table, column group, then statlist.
func (s *Store) Using(stat qgm.StatName) []Entry {
	type using struct {
		colgrp qgm.StatName
		row
	}
	s.mu.RLock()
	var found []using
	for colgrp, g := range s.groups {
		for _, r := range g.rows {
			if slices.Contains(r.StatList, stat) {
				found = append(found, using{colgrp, r})
			}
		}
	}
	s.mu.RUnlock()
	slices.SortFunc(found, func(a, b using) int {
		if c := strings.Compare(a.colgrp.Table(), b.colgrp.Table()); c != 0 {
			return c
		}
		if c := a.colgrp.Compare(b.colgrp); c != 0 {
			return c
		}
		return strings.Compare(a.stats, b.stats)
	})
	// A row's statlist is never written once the row holds it, so it may be
	// copied after the lock is released.
	out := make([]Entry, len(found))
	for i, u := range found {
		out[i] = u.Entry
		out[i].StatList = slices.Clone(u.StatList)
	}
	return out
}

// LastErrorFactorFor returns the EWMA error factor of the best-supported row
// whose statlist contains the given statistic (highest count, ties broken by
// Using's order). SHOW STATS uses it to report how honestly each archived
// statistic has been estimating. ok is false when no row uses the statistic.
func (s *Store) LastErrorFactorFor(stat qgm.StatName) (ef float64, ok bool) {
	var best *Entry
	entries := s.Using(stat)
	for i := range entries {
		if best == nil || entries[i].Count > best.Count {
			best = &entries[i]
		}
	}
	if best == nil {
		return 0, false
	}
	return best.ErrorFactor, true
}

// TotalCount returns the total number of recorded observations — the F
// denominator in Algorithm 4's usefulness score.
func (s *Store) TotalCount() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.total
}

// Len returns the number of StatHistory rows over every column group.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, g := range s.groups {
		n += len(g.rows)
	}
	return n
}

// ErrorFactor computes estimated/actual with both sides clamped into
// [floor, 1] to keep the ratio finite: floor represents half a row at the
// given cardinality (1e-9 when the cardinality is unknown or non-positive),
// and a selectivity can never exceed 1. Degenerate inputs are sanitized
// before the ratio: NaN (an undefined estimate, e.g. 0/0 from an empty
// sample) clamps to the floor, +Inf clamps to 1 — so the result is always a
// finite value in [floor, 1/floor] and safe to feed into the EWMAs and the
// error-factor histograms.
func ErrorFactor(estimatedSel, actualSel float64, cardinality int64) float64 {
	floor := 1e-9
	if cardinality > 0 {
		floor = 0.5 / float64(cardinality)
	}
	clamp := func(sel float64) float64 {
		switch {
		case math.IsNaN(sel):
			return floor
		case sel < floor: // also catches -Inf
			return floor
		case sel > 1: // also catches +Inf
			return 1
		default:
			return sel
		}
	}
	return clamp(estimatedSel) / clamp(actualSel)
}
