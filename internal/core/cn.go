package core

import (
	"slices"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/optimizer"
	"repro/internal/qgm"
)

// Strategy selects the sensitivity-analysis algorithm deciding which tables
// to sample.
type Strategy int

// Sensitivity strategies.
//
// StrategyLightweight is the paper's contribution: Algorithms 2–3 score
// each table from the StatHistory accuracy (s1) and UDI activity (s2)
// without ever invoking the optimizer.
//
// StrategyCN reimplements the magic-number analysis of Chaudhuri &
// Narasayya, "Automating Statistics Management for Query Optimizers" (TKDE
// 2001) — the paper's reference [6] and its closest related work: invoke
// the optimizer twice per round with every unknown selectivity pinned to ε
// and to 1−ε; if the two plan costs agree within a threshold the current
// statistics are sufficient, otherwise collect the statistic attached to
// the most expensive unknown operator and repeat. Each round costs full
// plan enumerations, which is precisely the overhead the paper's
// lightweight analysis avoids.
const (
	StrategyLightweight Strategy = iota
	StrategyCN
)

// CN magic-number analysis parameters (values from the reference's
// experiments' spirit).
const (
	cnEpsilon   = 0.01
	cnThreshold = 0.20 // plan costs within 20% ⇒ statistics sufficient
	cnMaxRounds = 4
)

// cnPinnedSource wraps the archive-backed statistics source and pins the
// selectivity of every predicate group on an "unknown" table to a constant
// — the ε / 1−ε invocations of the magic-number analysis. Groups on known
// tables flow through to the real source.
type cnPinnedSource struct {
	optimizer.StatsSource                 // the real source: cardinalities, NDVs, known tables' groups
	unknown               map[string]bool // tables whose statistics are unknown
	pin                   float64
}

// A pinned selectivity rests on no statistic: it answers under the zero name.
// The plans it prices are probes, never executed, so the name reaches no
// statlist the feedback loop records.
func (s *cnPinnedSource) GroupSelectivity(table string, preds []qgm.Predicate) (float64, qgm.StatName, bool) {
	if s.unknown[table] {
		return s.pin, qgm.StatName{}, true
	}
	return s.StatsSource.GroupSelectivity(table, preds)
}

// anyDefault reports whether an estimate was built on optimizer defaults.
func anyDefault(statList []qgm.StatName) bool {
	return slices.ContainsFunc(statList, func(s qgm.StatName) bool { return s.Kind() == qgm.StatDefault })
}

// cnDecide runs the magic-number analysis on one block and returns the
// tables whose statistics must be collected, in decision order. All plan
// enumerations charge the compilation meter — the cost the paper's §5
// criticizes ("multiple calls to the optimizer for every statistic").
func (j *JITS) cnDecide(blk *qgm.Block, real optimizer.StatsSource, meter *costmodel.Meter, w costmodel.Weights) []string {
	// Unknown tables: the full local group's estimate rests on defaults.
	est := &optimizer.Estimator{Cat: j.cat, QSS: real}
	unknown := make(map[string]bool)
	for slot, ti := range blk.Tables {
		preds := blk.LocalPreds[slot]
		if len(preds) == 0 {
			continue
		}
		if anyDefault(est.EstimateGroup(ti.Table, preds).StatList) {
			unknown[ti.Table] = true
		}
	}

	optimizeWith := func(source optimizer.StatsSource) (optimizer.Node, bool) {
		ctx := &optimizer.Context{
			Est:     &optimizer.Estimator{Cat: j.cat, QSS: source},
			Indexes: j.indexes,
			Weights: w,
			Meter:   meter,
		}
		plan, err := optimizer.Optimize(blk, ctx)
		if err != nil {
			return nil, false
		}
		return plan, true
	}

	var collect []string
	for round := 0; round < cnMaxRounds && len(unknown) > 0; round++ {
		lo, okLo := optimizeWith(&cnPinnedSource{StatsSource: real, unknown: unknown, pin: cnEpsilon})
		hi, okHi := optimizeWith(&cnPinnedSource{StatsSource: real, unknown: unknown, pin: 1 - cnEpsilon})
		if !okLo || !okHi {
			break
		}
		cLo, cHi := lo.Cost(), hi.Cost()
		if maxC := max(cLo, cHi); maxC <= 0 || (maxC-min(cLo, cHi))/maxC <= cnThreshold {
			break // current statistics are sufficient
		}
		// Most important statistic: cost the plan under current statistics
		// and charge the most expensive scan over an unknown table.
		cur, okCur := optimizeWith(real)
		if !okCur {
			break
		}
		victim := ""
		worst := -1.0
		for _, scan := range optimizer.CollectScans(cur) {
			if unknown[scan.Table] && scan.Cost() > worst {
				victim, worst = scan.Table, scan.Cost()
			}
		}
		if victim == "" {
			// No unknown table appears in the plan (all filtered tables
			// known); fall back to any unknown table, deterministically.
			names := make([]string, 0, len(unknown))
			for t := range unknown {
				names = append(names, t)
			}
			sort.Strings(names)
			victim = names[0]
		}
		collect = append(collect, victim)
		delete(unknown, victim)
	}
	return collect
}
