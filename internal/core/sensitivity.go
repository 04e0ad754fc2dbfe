package core

import (
	"repro/internal/catalog"
	"repro/internal/feedback"
	"repro/internal/histogram"
	"repro/internal/qgm"
)

// Score clamping keeps the paper's stated endpoints exact: with s_max = 0
// statistics are always collected, with s_max = 1 never.
const (
	scoreFloor = 0.001
	scoreCeil  = 0.999
	// accuracy assigned to an optimizer default in a statlist: a default
	// carries no information about the data, so estimates built on it never
	// argue against collecting real statistics.
	defaultStatAccuracy = 0.0
	// accuracy assigned to a statistic the analyzer cannot locate anymore —
	// a one-shot collection that was never materialized, or an evicted
	// histogram. The evidence it produced is void: without this, a query
	// whose fresh sample estimated perfectly would suppress collection for
	// every later query while leaving them nothing to estimate from.
	unknownStatAccuracy = 0.0
)

// TableActivity is the live per-table signal for Algorithm 3: current
// cardinality and the UDI counter accumulated since the last statistics
// collection.
type TableActivity struct {
	Table       string
	Cardinality int64
	UDI         int64
}

// Scores exposes the sensitivity-analysis decision for reporting.
type Scores struct {
	S1    float64 // 1 - accuracy of existing statistics
	S2    float64 // data activity: min(UDI / cardinality, 1)
	Total float64 // clamped aggregate
}

// Sensitivity implements Algorithms 2–4. The zero value is not usable;
// construct with the JITS coordinator.
type Sensitivity struct {
	History *feedback.Store
	Archive *Archive
	Cat     *catalog.Catalog
	SMax    float64
}

// ShouldCollectStats is Algorithm 3: decide whether table t's statistics
// must be refreshed by sampling, from (s1) how accurately the statistics
// the optimizer has been using predict the table's maximal predicate group
// and (s2) how much the data changed since the last collection. The
// aggregate is the average of the two, clamped; collection happens when it
// reaches SMax.
func (s *Sensitivity) ShouldCollectStats(act TableActivity, groups [][]qgm.Predicate) (bool, Scores) {
	g := maxGroup(groups)
	colgrp := qgm.ColumnGroup(act.Table, qgm.GroupColumns(g))

	maxAcc := 0.0
	for _, h := range s.History.For(colgrp) {
		accu := feedback.Accuracy(h.ErrorFactor)
		for _, stat := range h.StatList {
			accu *= s.statAccuracy(stat, act.Table, g)
		}
		if accu > maxAcc {
			maxAcc = accu
		}
	}
	s1 := 1 - maxAcc

	var s2 float64
	switch {
	case act.Cardinality > 0:
		s2 = min(float64(act.UDI)/float64(act.Cardinality), 1)
	case act.UDI > 0:
		s2 = 1 // everything the table ever held changed
	}

	total := clampScore((s1 + s2) / 2)
	return total >= s.SMax, Scores{S1: s1, S2: s2, Total: total}
}

// statAccuracy evaluates the accuracy term of one statlist element with
// respect to predicate group g: the paper's boundary-distance metric when
// the statistic is a histogram (archive grid first, then catalog
// distribution), a small constant for optimizer defaults, and a neutral
// constant when the statistic can no longer be found.
func (s *Sensitivity) statAccuracy(stat qgm.StatName, table string, g []qgm.Predicate) float64 {
	if stat.Kind() == qgm.StatDefault {
		return defaultStatAccuracy
	}
	if s.Archive != nil {
		if acc, ok := s.Archive.AccuracyFor(stat, g); ok {
			return acc
		}
	}
	// Catalog 1-D distribution: a column group whose body is one column
	// (the body of a wider group names no catalog column).
	if s.Cat != nil && stat.Kind() == qgm.StatColumnGroup && stat.Table() == table {
		col := stat.Body()
		if ts, ok := s.Cat.TableStats(table); ok {
			if cs, ok := ts.Columns[col]; ok && cs.Hist != nil {
				lo, hi := histogram.FullRange()
				ok := true
				for _, p := range g {
					ok = ok && (p.Column != col || narrow(&lo, &hi, p, cs.Unit()))
				}
				if ok {
					if acc, err := cs.Hist.Accuracy(histogram.Box{Lo: []float64{lo}, Hi: []float64{hi}}); err == nil {
						return acc
					}
				}
			}
		}
	}
	return unknownStatAccuracy
}

// maxGroup returns the group with the most predicates — the table's full
// local group, the one Algorithm 3 scores.
func maxGroup(groups [][]qgm.Predicate) []qgm.Predicate {
	var best []qgm.Predicate
	for _, g := range groups {
		if len(g) > len(best) {
			best = g
		}
	}
	return best
}

func clampScore(x float64) float64 { return min(max(x, scoreFloor), scoreCeil) }

// ShouldMaterialize is Algorithm 4: a collected statistic is worth storing
// in the QSS archive when a histogram already exists on its column group
// (keep it fresh), when the StatHistory says estimates built *from* this
// statistic have been frequent and accurate (the usefulness score — the
// count-weighted accuracy of the entries whose statlist contains it,
// normalized by the total history count F), or — the bootstrap rule — when
// the column group itself keeps recurring as an estimation target: a
// statistic the optimizer repeatedly needs is worth keeping even before it
// has ever been stored.
func (s *Sensitivity) ShouldMaterialize(table string, g []qgm.Predicate) bool {
	cols := qgm.GroupColumns(g)
	if s.Archive != nil && s.Archive.HasStatistic(table, cols) {
		return true
	}
	statKey := qgm.ColumnGroup(table, cols)
	if s.History.Observed(statKey) {
		return true // recurring target: bootstrap it into the archive
	}
	f := s.History.TotalCount()
	if f == 0 {
		return false
	}
	score := 0.0
	for _, h := range s.History.Using(statKey) {
		score += feedback.Accuracy(h.ErrorFactor) * float64(h.Count) / float64(f)
	}
	return score >= s.SMax
}
