// Package feedback implements the LEO-style query feedback loop the paper
// relies on for its StatHistory: after a query executes, the engine compares
// the optimizer's estimated selectivity of each table's predicate group with
// the actual selectivity observed at run time and records the error.
//
// Each history entry matches the paper's Table 1 schema: (T, colgrp,
// statlist, count, errorFactor), where statlist is the set of statistics the
// optimizer combined to produce the estimate (e.g. two 1-D histograms under
// the independence assumption) and errorFactor = estimated / actual. The
// JITS sensitivity analysis consumes this history: Algorithm 3 reads the
// entries *for* a column group to score how well existing statistics predict
// it, and Algorithm 4 reads the entries *using* a statistic to score how
// useful materializing it has been.
package feedback

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/qgm"
)

// ewmaAlpha is the weight of the newest observation when an entry's error
// factor is updated; older history decays geometrically.
const ewmaAlpha = 0.5

// Entry is one StatHistory record.
type Entry struct {
	Table       string
	ColGrp      qgm.StatName   // the column group estimated (qgm.ColumnGroup)
	StatList    []qgm.StatName // the statistics used, ordered by name
	Count       int64          // times this statlist estimated this group
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

type entryKey struct {
	table, colgrp, stats string
}

// canonStats returns statlist ordered by name and that order's "|"-joined
// text, the statlist part of an entry's identity.
func canonStats(statlist []qgm.StatName) (string, []qgm.StatName) {
	s := slices.Clone(statlist)
	slices.SortFunc(s, qgm.StatName.Compare)
	return joinStats(s), s
}

func joinStats(statlist []qgm.StatName) string {
	size := len(statlist)
	for _, n := range statlist {
		size += len(n.String())
	}
	var b strings.Builder
	b.Grow(size)
	for i, n := range statlist {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(n.String())
	}
	return b.String()
}

// History is the StatHistory store. Safe for concurrent use.
type History struct {
	mu      sync.RWMutex
	entries map[entryKey]*Entry
	total   int64 // Σ count — the F of Algorithm 4
}

// NewHistory returns an empty StatHistory.
func NewHistory() *History {
	return &History{entries: make(map[entryKey]*Entry)}
}

// Record logs that statlist was used to estimate colgrp on table with the
// given error factor (estimated/actual). Repeated observations accumulate
// the count and exponentially average the error factor.
func (h *History) Record(table string, colgrp qgm.StatName, statlist []qgm.StatName, errorFactor float64) {
	// A non-finite error factor carries no usable signal and, once mixed
	// into the EWMA, would poison the entry forever (NaN never decays out).
	// ErrorFactor can no longer produce one, but Record is a public API.
	if math.IsNaN(errorFactor) || math.IsInf(errorFactor, 0) {
		return
	}
	key, sorted := canonStats(statlist)
	h.mu.Lock()
	defer h.mu.Unlock()
	k := entryKey{table: table, colgrp: colgrp.String(), stats: key}
	e, ok := h.entries[k]
	if !ok {
		e = &Entry{Table: table, ColGrp: colgrp, StatList: sorted, ErrorFactor: errorFactor}
		h.entries[k] = e
	} else {
		e.ErrorFactor = (1-ewmaAlpha)*e.ErrorFactor + ewmaAlpha*errorFactor
	}
	e.Count++
	h.total++
}

// EntriesFor returns copies of the entries whose target is (table, colgrp) —
// the H set of Algorithm 3.
func (h *History) EntriesFor(table string, colgrp qgm.StatName) []Entry {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var out []Entry
	for _, e := range h.entries {
		if e.Table == table && e.ColGrp == colgrp {
			out = append(out, cloneEntry(e))
		}
	}
	sortEntries(out)
	return out
}

// EntriesUsing returns copies of the entries whose statlist contains the
// given statistic — the H set of Algorithm 4.
func (h *History) EntriesUsing(stat qgm.StatName) []Entry {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var out []Entry
	for _, e := range h.entries {
		for _, s := range e.StatList {
			if s == stat {
				out = append(out, cloneEntry(e))
				break
			}
		}
	}
	sortEntries(out)
	return out
}

// LastErrorFactorFor returns the EWMA error factor of the best-supported
// history entry whose statlist contains the given statistic (highest
// observation count, ties broken by the canonical entry order). The
// introspection surface (SHOW STATS) uses it to report how honestly each
// archived statistic has been estimating. ok is false when no entry uses
// the statistic.
func (h *History) LastErrorFactorFor(stat qgm.StatName) (ef float64, ok bool) {
	entries := h.EntriesUsing(stat)
	var best *Entry
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
func (h *History) TotalCount() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.total
}

// Len returns the number of distinct history entries.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.entries)
}

// Reset clears the history.
func (h *History) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.entries = make(map[entryKey]*Entry)
	h.total = 0
}

func cloneEntry(e *Entry) Entry {
	c := *e
	c.StatList = slices.Clone(e.StatList)
	return c
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Table != es[j].Table {
			return es[i].Table < es[j].Table
		}
		if c := es[i].ColGrp.Compare(es[j].ColGrp); c != 0 {
			return c < 0
		}
		return joinStats(es[i].StatList) < joinStats(es[j].StatList)
	})
}

// ErrorFactor computes estimated/actual with both sides clamped into
// [floor, 1] to keep the ratio finite: floor represents half a row at the
// given cardinality (1e-9 when the cardinality is unknown or non-positive),
// and a selectivity can never exceed 1. Degenerate inputs are sanitized
// before the ratio: NaN (an undefined estimate, e.g. 0/0 from an empty
// sample) clamps to the floor, +Inf clamps to 1 — so the result is always a
// finite value in [floor, 1/floor] and safe to feed into the EWMA history
// and the error-factor histogram.
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
