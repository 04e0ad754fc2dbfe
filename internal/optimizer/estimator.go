// Package optimizer implements the engine's cost-based optimizer: a
// cardinality estimator that consumes both general catalog statistics and
// query-specific statistics (QSS), dynamic-programming join enumeration,
// and access-path selection (table scan vs. index range scan).
//
// The estimator is the point where the paper's problem lives: with only
// general statistics it must assume uniformity within histogram buckets and
// independence across predicates, and both assumptions produce the large
// errors JITS exists to remove. Every estimate therefore records its
// *provenance* — which statistics were combined to produce it — so the
// feedback loop can attribute errors to statistics, exactly what the
// StatHistory statlist column stores.
package optimizer

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/histogram"
	"repro/internal/qgm"
	"repro/internal/value"
)

// Default selectivities used when no statistics are available — the
// optimizer's "fake stats" of the paper's Figure 1.
const (
	DefaultCardinality = 1000.0
	DefaultEqSel       = 0.04
	DefaultRangeSel    = 1.0 / 3
	DefaultBetweenSel  = 0.25
	DefaultNESel       = 0.9
	MaxSubsetPreds     = 6 // beyond this, QSS lookup tries only the full group and singles
)

// StatsSource supplies query-specific statistics. The JITS QSS archive (and
// the per-query freshly collected selectivities) implement it; a nil source
// means the optimizer runs on general statistics alone.
type StatsSource interface {
	// GroupSelectivity returns the selectivity of the exact predicate group
	// on table if the source knows it, along with the name of the statistic
	// that answered (for provenance).
	GroupSelectivity(table string, preds []qgm.Predicate) (sel float64, stat qgm.StatName, ok bool)
	// Cardinality returns a fresh table row count if the source has one.
	Cardinality(table string) (int64, bool)
	// ColumnNDV returns a fresh distinct-value estimate for a column if the
	// source has one (JITS derives these from its collection sample; join
	// selectivity estimation consumes them).
	ColumnNDV(table, column string) (int64, bool)
}

// Estimate is a selectivity with provenance.
type Estimate struct {
	Sel      float64
	StatList []qgm.StatName // the statistics combined, ordered by name
	// FromQSS reports whether any query-specific statistic contributed.
	FromQSS bool
}

// Estimator computes cardinalities from the catalog plus an optional QSS
// source.
type Estimator struct {
	Cat *catalog.Catalog
	QSS StatsSource
}

// TableCard returns the estimated row count of a table and whether it came
// from real statistics (QSS or catalog) rather than the default guess.
func (e *Estimator) TableCard(table string) (float64, bool) {
	if e.QSS != nil {
		if card, ok := e.QSS.Cardinality(table); ok {
			return float64(card), true
		}
	}
	if e.Cat != nil {
		if ts, ok := e.Cat.TableStats(table); ok {
			return float64(ts.Cardinality), true
		}
	}
	return DefaultCardinality, false
}

// EstimateGroup estimates the combined selectivity of a conjunctive local
// predicate group on one table.
//
// It greedily covers the group with the largest sub-groups the QSS source
// can answer exactly (the paper: the optimizer can estimate
// sel(p1∧p2∧p3∧p4) from partial selectivities such as sel(p1) and
// sel(p2∧p3)), multiplies the pieces under the independence assumption, and
// falls back to catalog statistics and then defaults for single predicates.
func (e *Estimator) EstimateGroup(table string, preds []qgm.Predicate) Estimate {
	if len(preds) == 0 {
		return Estimate{Sel: 1}
	}
	remaining := append([]qgm.Predicate(nil), preds...)
	est := Estimate{Sel: 1}

	for len(remaining) > 0 {
		if e.QSS != nil {
			if sub, sel, key, ok := e.largestKnownSubset(table, remaining); ok {
				est.Sel *= sel
				est.StatList = append(est.StatList, key)
				est.FromQSS = true
				remaining = removePreds(remaining, sub)
				continue
			}
		}
		p := remaining[0]
		remaining = remaining[1:]
		sel, key := e.singleSelectivity(table, p)
		est.Sel *= sel
		est.StatList = append(est.StatList, key)
	}
	est.Sel = min(max(est.Sel, 0), 1)
	slices.SortFunc(est.StatList, qgm.StatName.Compare)
	return est
}

// largestKnownSubset finds the largest subset of remaining whose exact
// selectivity the QSS source knows. Subset enumeration is exponential, so
// groups beyond MaxSubsetPreds only try the full group; singles are handled
// by the caller's fallback path (which itself asks the QSS source first).
func (e *Estimator) largestKnownSubset(table string, remaining []qgm.Predicate) ([]qgm.Predicate, float64, qgm.StatName, bool) {
	n := len(remaining)
	if n == 0 {
		return nil, 0, qgm.StatName{}, false
	}
	if sel, key, ok := e.QSS.GroupSelectivity(table, remaining); ok {
		return remaining, sel, key, true
	}
	if n > MaxSubsetPreds {
		return nil, 0, qgm.StatName{}, false
	}
	// All proper subsets by descending size.
	type cand struct {
		mask int
		size int
	}
	cands := make([]cand, 0, 1<<n)
	for mask := 1; mask < (1<<n)-1; mask++ {
		cands = append(cands, cand{mask: mask, size: bits.OnesCount(uint(mask))})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].size != cands[j].size {
			return cands[i].size > cands[j].size
		}
		return cands[i].mask < cands[j].mask // deterministic
	})
	for _, c := range cands {
		if c.size < 1 {
			continue
		}
		sub := subsetByMask(remaining, c.mask)
		if sel, key, ok := e.QSS.GroupSelectivity(table, sub); ok {
			return sub, sel, key, true
		}
	}
	return nil, 0, qgm.StatName{}, false
}

func subsetByMask(preds []qgm.Predicate, mask int) []qgm.Predicate {
	var out []qgm.Predicate
	for i := range preds {
		if mask&(1<<i) != 0 {
			out = append(out, preds[i])
		}
	}
	return out
}

// removePreds drops from all every predicate that sub holds: same slot, same
// text.
func removePreds(all, sub []qgm.Predicate) []qgm.Predicate {
	out := all[:0]
	for _, p := range all {
		found := false
		for _, s := range sub {
			if p.Slot == s.Slot && p.SameText(s) {
				found = true
				break
			}
		}
		if !found {
			out = append(out, p)
		}
	}
	return out
}

// singleSelectivity estimates one predicate from catalog statistics,
// returning its provenance: the column-group name of the statistic used, or
// the default marker when the optimizer guessed.
func (e *Estimator) singleSelectivity(table string, p qgm.Predicate) (float64, qgm.StatName) {
	defaultKey := qgm.DefaultStat(table, p.Column)
	var cs *catalog.ColumnStats
	var card int64
	if e.Cat != nil {
		if ts, ok := e.Cat.TableStats(table); ok {
			cs = ts.Columns[p.Column]
			card = ts.Cardinality
		}
	}
	if cs == nil {
		return defaultSelectivity(p), defaultKey
	}
	key := qgm.ColumnGroup(table, []string{p.Column})
	if card == 0 {
		return 0, key
	}
	notNull := 1 - float64(cs.NullCount)/float64(card)
	if notNull < 0 {
		notNull = 0
	}

	switch p.Op {
	case qgm.OpEQ:
		return e.equalitySelectivity(cs, card, p.Value), key
	case qgm.OpNE:
		s := notNull - e.equalitySelectivity(cs, card, p.Value)
		if s < 0 || p.Value.IsNull() { // a comparison with NULL is never true
			s = 0
		}
		return s, key
	case qgm.OpIn:
		s := 0.0
		for _, v := range p.Values {
			s += e.equalitySelectivity(cs, card, v)
		}
		if s > notNull {
			s = notNull
		}
		return s, key
	default:
		// Range / BETWEEN via the distribution histogram.
		r, _ := p.Range()
		if r.Empty() {
			return 0, key
		}
		if cs.Hist == nil {
			return defaultSelectivity(p), defaultKey
		}
		lo, hi, _ := r.Coords(cs.Unit())
		frac, err := cs.Hist.EstimateBox(histogram.Box{Lo: []float64{lo}, Hi: []float64{hi}})
		if err != nil {
			return defaultSelectivity(p), defaultKey
		}
		return frac * notNull, key
	}
}

// equalitySelectivity estimates col = v: exact from the frequent-value list
// when the value is tracked, otherwise the remaining mass spread evenly
// across the remaining distinct values (the uniformity assumption).
func (e *Estimator) equalitySelectivity(cs *catalog.ColumnStats, card int64, v value.Datum) float64 {
	if v.IsNull() || card == 0 {
		return 0
	}
	var freqMass int64
	for _, f := range cs.Freq {
		if f.Value.Equal(v) {
			return float64(f.Count) / float64(card)
		}
		freqMass += f.Count
	}
	nonNull := card - cs.NullCount
	restRows := nonNull - freqMass
	restNDV := cs.NDV - int64(len(cs.Freq))
	if restNDV <= 0 || restRows <= 0 {
		// All distinct values tracked and v is none of them: it does not
		// occur (as of collection time); keep a half-row floor.
		return 0.5 / float64(card)
	}
	// Out-of-range values cannot match (as of collection time).
	if !cs.Min.IsNull() && v.Compare(cs.Min) < 0 || !cs.Max.IsNull() && v.Compare(cs.Max) > 0 {
		return 0.5 / float64(card)
	}
	return float64(restRows) / float64(restNDV) / float64(card)
}

func defaultSelectivity(p qgm.Predicate) float64 {
	switch p.Op {
	case qgm.OpEQ:
		return DefaultEqSel
	case qgm.OpNE:
		return DefaultNESel
	case qgm.OpBetween:
		return DefaultBetweenSel
	case qgm.OpIn:
		s := DefaultEqSel * float64(len(p.Values))
		if s > 1 {
			s = 1
		}
		return s
	default:
		return DefaultRangeSel
	}
}

// JoinSelectivity estimates an equality join predicate's selectivity with
// the containment assumption: 1 / max(ndv(left), ndv(right)).
func (e *Estimator) JoinSelectivity(jp qgm.JoinPredicate, leftTable, rightTable string) float64 {
	ndvL := e.columnNDV(leftTable, jp.LeftCol)
	ndvR := e.columnNDV(rightTable, jp.RightCol)
	m := math.Max(ndvL, ndvR)
	if m < 1 {
		m = 1
	}
	// Chaos probe: a seeded multiplicative skew on the join estimate, so
	// tests can force the planner wrong without touching any statistics.
	return faultinject.ScaleIf(faultinject.EstimatorMisestimate, 1/m)
}

func (e *Estimator) columnNDV(table, column string) float64 {
	if e.QSS != nil {
		if ndv, ok := e.QSS.ColumnNDV(table, column); ok && ndv > 0 {
			return float64(ndv)
		}
	}
	if e.Cat != nil {
		if ts, ok := e.Cat.TableStats(table); ok {
			if cs, ok := ts.Columns[column]; ok && cs.NDV > 0 {
				return float64(cs.NDV)
			}
		}
	}
	// No distribution statistics: assume the join column is key-like
	// (NDV ≈ cardinality). Equality joins overwhelmingly run along
	// key/foreign-key edges, so this keeps FK-join estimates sane when only
	// table cardinalities are known (e.g. freshly refreshed by JITS).
	card, _ := e.TableCard(table)
	if card < 1 {
		card = 1
	}
	return card
}
