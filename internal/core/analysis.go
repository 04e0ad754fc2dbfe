// Package core implements JITS — the paper's framework for proactively
// collecting, exploiting and materializing Just-in-Time Statistics during
// query compilation.
//
// The package provides the four new modules of the paper's Figure 1
// architecture:
//
//   - Query Analysis (Algorithm 1): enumerate the candidate predicate
//     groups of each table in each query block.
//   - Sensitivity Analysis (Algorithms 2–4): decide which tables to sample
//     (ShouldCollectStats, from statistics accuracy s1 and data activity
//     s2) and which collected statistics to materialize for reuse
//     (ShouldMaterialize, from the StatHistory usefulness score).
//   - Statistics Collection: sample marked tables once and compute the
//     observed selectivity of every candidate group from that sample.
//   - The QSS Archive with its maximum-entropy histograms, plus Statistics
//     Migration back into the system catalog.
//
// The JITS coordinator type ties the modules together behind two calls the
// engine makes per query: PrepareBudgeted (before optimization) and Feedback (after
// execution).
package core

import (
	"math/bits"

	"repro/internal/qgm"
)

// DefaultMaxPredsPerTable bounds Algorithm 1's exponential group
// enumeration. Tables with more local predicates contribute all singleton
// and pair groups plus the full group, instead of the full powerset.
const DefaultMaxPredsPerTable = 8

// TableCandidates is the query-analysis output for one table instance of
// one block: every candidate predicate group statistics could be collected
// for.
type TableCandidates struct {
	Block  int
	Slot   int
	Table  string
	Alias  string
	Groups [][]qgm.Predicate
}

// AnalyzeQuery implements Algorithm 1: for every block and every table with
// local predicates, enumerate the candidate predicate groups — all
// i-predicate combinations for i = 1..m. Tables whose predicate count
// exceeds maxPreds get the reduced family (singletons, pairs, full group);
// maxPreds ≤ 0 selects DefaultMaxPredsPerTable.
func AnalyzeQuery(q *qgm.Query, maxPreds int) []TableCandidates {
	if maxPreds <= 0 {
		maxPreds = DefaultMaxPredsPerTable
	}
	var out []TableCandidates
	for bi, blk := range q.Blocks {
		for slot, ti := range blk.Tables {
			preds := blk.LocalPreds[slot]
			if len(preds) == 0 {
				continue
			}
			tc := TableCandidates{Block: bi, Slot: slot, Table: ti.Table, Alias: ti.Alias}
			if len(preds) <= maxPreds {
				tc.Groups = allGroups(preds)
			} else {
				tc.Groups = reducedGroups(preds)
			}
			out = append(out, tc)
		}
	}
	return out
}

// allGroups enumerates every non-empty subset, smallest first (the order of
// the paper's loop over i-predicate groups).
func allGroups(preds []qgm.Predicate) [][]qgm.Predicate {
	m := len(preds)
	groups := make([][]qgm.Predicate, 0, (1<<m)-1)
	for size := 1; size <= m; size++ {
		for mask := 1; mask < 1<<m; mask++ {
			if bits.OnesCount(uint(mask)) != size {
				continue
			}
			g := make([]qgm.Predicate, 0, size)
			for i := 0; i < m; i++ {
				if mask&(1<<i) != 0 {
					g = append(g, preds[i])
				}
			}
			groups = append(groups, g)
		}
	}
	return groups
}

// reducedGroups is the capped family: singletons, pairs, and the full group.
func reducedGroups(preds []qgm.Predicate) [][]qgm.Predicate {
	var groups [][]qgm.Predicate
	for i := range preds {
		groups = append(groups, []qgm.Predicate{preds[i]})
	}
	for i := range preds {
		for j := i + 1; j < len(preds); j++ {
			groups = append(groups, []qgm.Predicate{preds[i], preds[j]})
		}
	}
	groups = append(groups, append([]qgm.Predicate(nil), preds...))
	return groups
}
