package feedback

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/qgm"
)

// State is the freshness state of one column group.
type State uint8

const (
	// StateFresh: merged (or first observed) recently, no drift evidence.
	StateFresh State = iota
	// StateAging: enough DML churn or logical-clock age since the last
	// merge that the statistic is suspect, but estimates still track.
	StateAging
	// StateDrifted: the statistic was already aging AND the CUSUM on
	// |log error-factor| crossed its threshold — estimates made from this
	// statistic are systematically wrong. Drift is only ever declared from
	// StateAging: a statistic whose estimates were always mediocre (a
	// coarse grid over correlated columns, say) accrues CUSUM evidence but
	// is not "drifted" until churn or age says the data may have moved
	// from under it.
	StateDrifted
)

func (s State) String() string {
	switch s {
	case StateFresh:
		return "fresh"
	case StateAging:
		return "aging"
	case StateDrifted:
		return "drifted"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// The drift account's fixed tuning.
const (
	// halfLifeTicks is the EWMA half-life, in logical ticks, for the
	// decayed q-error and |log error-factor| means.
	halfLifeTicks = 64
	// cusumSlack is the drift detector's slack k: the |log error-factor|
	// magnitude considered in-control (no evidence accrues below it) —
	// estimates within 2x of actual are fine.
	cusumSlack = math.Ln2
	// cusumThreshold is the detector's decision threshold h on the
	// accumulated out-of-control evidence: roughly two consecutive 4x
	// misestimates, or four 2.8x ones.
	cusumThreshold = 4 * math.Ln2
	// minObservations gates drift: a statistic cannot be declared drifted
	// before this many feedback observations.
	minObservations = 4
	// agingAgeTicks flips fresh → aging once this many ticks pass since the
	// last merge.
	agingAgeTicks = 512
	// agingChurnFraction flips fresh → aging once DML churn since the last
	// merge reaches this fraction of the table's base cardinality.
	agingChurnFraction = 0.10
)

// Transition reports one state-machine edge, with the detector's evidence at
// the edge: CUSUM, observation count and DML rows since the last merge.
type Transition struct {
	Stat         qgm.StatName
	From         State
	To           State
	CUSUM        float64
	Observations uint64
	ChurnRows    int64
}

// StatAccuracy is one column group's drift account as exposed by Snapshot —
// SHOW ACCURACY, SHOW DRIFT and /debug/accuracy all render from it.
type StatAccuracy struct {
	Key             string    `json:"key"`   // column-group key, e.g. "owner(city)"
	Table           string    `json:"table"` // owning table
	State           string    `json:"state"` // fresh | aging | drifted
	Observations    uint64    `json:"observations"`
	EWMAQError      float64   `json:"ewma_qerror"` // time-decayed mean q-error
	EWMALogEF       float64   `json:"ewma_log_ef"` // time-decayed mean |log error-factor|
	CUSUM           float64   `json:"cusum"`       // accumulated drift evidence
	ChurnSinceMerge int64     `json:"churn_rows"`  // DML rows since last merge
	LastMerge       int64     `json:"last_merge"`  // logical tick of last merge (or first tracking)
	LastObserved    int64     `json:"last_observed"`
	Merges          uint64    `json:"merges"`
	DriftedAt       int64     `json:"drifted_at"` // tick of the drift transition, 0 if never
	Hist            []uint64  `json:"hist"`       // error-factor histogram counts, aligned with HistBounds
	HistBounds      []float64 `json:"hist_bounds"`
}

// drift is a column group's drift account.
type drift struct {
	state           State
	obs             uint64
	ewmaQError      float64
	ewmaLogEF       float64
	cusum           float64
	churnSinceMerge int64
	lastMerge       int64
	lastObserved    int64
	merges          uint64
	driftedAt       int64
	baseCard        int64
	hist            []uint64
}

// transition moves g to state to and counts it. Caller holds s.mu.
func (s *Store) transition(ts int64, colgrp qgm.StatName, g *group, to State) Transition {
	tr := Transition{Stat: colgrp, From: g.state, To: to,
		CUSUM: g.cusum, Observations: g.obs, ChurnRows: g.churnSinceMerge}
	g.state = to
	s.transitions[to]++
	if to == StateDrifted {
		g.driftedAt = ts
	}
	return tr
}

// ageCheck applies the fresh → aging edges (clock age, DML churn). Caller
// holds s.mu.
func (s *Store) ageCheck(ts int64, colgrp qgm.StatName, g *group) {
	if g.state != StateFresh {
		return
	}
	aged := ts-g.lastMerge > agingAgeTicks
	churned := g.baseCard > 0 &&
		float64(g.churnSinceMerge) >= agingChurnFraction*float64(g.baseCard)
	if aged || churned {
		s.transition(ts, colgrp, g, StateAging)
	}
}

// observeDrift adds one error factor ef to g's drift account and reports
// the transition to drifted it caused, if any. Caller holds s.mu.
func (s *Store) observeDrift(ts int64, colgrp qgm.StatName, g *group, ef float64, baseCard int64) (Transition, bool) {
	qerr := max(ef, 1/ef)
	absLogEF := math.Abs(math.Log(ef))
	if baseCard > 0 {
		g.baseCard = baseCard
	}

	// Time-decayed EWMA: the blend weight grows with the logical-clock gap
	// since the previous observation, so long-idle statistics converge to
	// recent behaviour quickly while a burst of observations averages.
	gap := max(ts-g.lastObserved, 0)
	alpha := 1 - math.Pow(0.5, float64(gap+1)/halfLifeTicks)
	if g.obs == 0 {
		g.ewmaQError, g.ewmaLogEF = qerr, absLogEF
	} else {
		g.ewmaQError += alpha * (qerr - g.ewmaQError)
		g.ewmaLogEF += alpha * (absLogEF - g.ewmaLogEF)
	}
	g.obs++
	g.lastObserved = ts
	g.hist[sort.SearchFloat64s(s.bounds, ef)]++

	// One-sided CUSUM on |log error-factor|: evidence accrues only above
	// the slack k, so ordinary sampling noise never sums to a detection.
	g.cusum = max(g.cusum+(absLogEF-cusumSlack), 0)

	s.ageCheck(ts, colgrp, g)
	// The state machine is strictly fresh → aging → drifted: CUSUM evidence
	// alone never flips a fresh statistic (its estimates may simply have
	// always been poor); churn or age must first make it suspect.
	if g.state == StateAging && g.obs >= minObservations && g.cusum >= cusumThreshold {
		return s.transition(ts, colgrp, g, StateDrifted), true
	}
	return Transition{}, false
}

// ObserveMerge records an archive merge (materialization) of the column
// group: the archive just absorbed fresh sample evidence, so the group
// resets to fresh and its churn and drift evidence restart from zero. A
// group only merged has a drift account and no StatHistory rows.
func (s *Store) ObserveMerge(ts int64, colgrp qgm.StatName) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.entry(ts, colgrp)
	s.merges++
	g.merges++
	g.lastMerge = ts
	g.churnSinceMerge = 0
	g.cusum = 0
	if g.state != StateFresh {
		s.transition(ts, colgrp, g, StateFresh)
	}
}

// RecordChurn charges rows of DML against every column group of the table;
// enough accumulated churn flips fresh groups to aging.
func (s *Store) RecordChurn(ts int64, table string, rows int64) {
	if rows <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.churnRows += rows
	for colgrp, g := range s.groups {
		if colgrp.Table() == table {
			g.churnSinceMerge += rows
			s.ageCheck(ts, colgrp, g)
		}
	}
}

// Snapshot returns every column group's drift account, sorted by key.
// Optional table filters to one table's groups; empty means all.
func (s *Store) Snapshot(table string) []StatAccuracy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]StatAccuracy, 0, len(s.groups))
	for colgrp, g := range s.groups {
		if table != "" && colgrp.Table() != table {
			continue
		}
		out = append(out, StatAccuracy{
			Key:             colgrp.String(),
			Table:           colgrp.Table(),
			State:           g.state.String(),
			Observations:    g.obs,
			EWMAQError:      g.ewmaQError,
			EWMALogEF:       g.ewmaLogEF,
			CUSUM:           g.cusum,
			ChurnSinceMerge: g.churnSinceMerge,
			LastMerge:       g.lastMerge,
			LastObserved:    g.lastObserved,
			Merges:          g.merges,
			DriftedAt:       g.driftedAt,
			Hist:            append([]uint64(nil), g.hist...),
			HistBounds:      s.bounds,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Drifted returns the snapshot rows currently in StateDrifted, sorted by
// key — the SHOW DRIFT surface.
func (s *Store) Drifted() []StatAccuracy {
	all := s.Snapshot("")
	out := all[:0]
	for _, a := range all {
		if a.State == StateDrifted.String() {
			out = append(out, a)
		}
	}
	return out
}

// Counts returns the number of column groups per state.
func (s *Store) Counts() (tracked, fresh, aging, drifted int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, g := range s.groups {
		switch g.state {
		case StateFresh:
			fresh++
		case StateAging:
			aging++
		case StateDrifted:
			drifted++
		}
	}
	return len(s.groups), fresh, aging, drifted
}

// Scrape appends the store's series to set: the feedback_error_factor
// histogram, the accuracy_* and drift_* totals, and the tracked and drifted
// groups counted from its map.
func (s *Store) Scrape(set *metrics.Set) {
	tracked, _, _, drifted := s.Counts()
	s.mu.RLock()
	observations, merges, churn, transitions := s.total, s.merges, s.churnRows, s.transitions
	s.mu.RUnlock()
	to := make([]metrics.Series, len(transitions))
	for st, n := range transitions {
		to[st] = metrics.Series{LabelValue: State(st).String(), Value: float64(n)}
	}
	set.Histogram("feedback_error_factor",
		"Estimated/actual selectivity error factors observed by the feedback loop.", s.errorFactors)
	set.Counter("accuracy_observations_total", "Feedback observations recorded by the feedback store.", float64(observations))
	set.Counter("accuracy_merges_total", "Archive merge events recorded by the feedback store.", float64(merges))
	set.Counter("accuracy_churn_rows_total", "DML rows charged against tracked column groups.", float64(churn))
	set.Gauge("accuracy_tracked_stats", "Column groups the feedback store tracks.", float64(tracked))
	set.CounterBy("drift_transitions_total", "Drift state-machine transitions by destination state.", "to", to)
	set.Gauge("drift_drifted_stats", "Column groups currently in the drifted state.", float64(drifted))
}
