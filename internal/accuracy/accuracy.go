// Package accuracy maintains the estimator-accuracy ledger: a per-statistic
// account of how well the archive's selectivity estimates are tracking
// reality, fed by the engine's LEO-style feedback loop and by archive merge
// events, with a CUSUM drift detector that flips each tracked statistic
// through the state machine fresh → aging → drifted.
//
// The ledger is the observability half of the ROADMAP's "self-tuning
// archive" loop: it does not change any estimate, it only watches the
// feedback stream and says *which* statistics have gone stale under DML
// churn or distribution shift, so a later refinement pass (or an operator
// reading SHOW DRIFT) knows where to spend collection budget.
//
// Time is the engine's logical clock (one tick per statement), injected
// with every event — there is no wall clock anywhere in the ledger, so
// drift tests are deterministic.
//
// Telemetry discipline: whether the ledger records is fixed when it is
// built, and every public probe on a disabled ledger costs one field load and
// nothing else (proven by BenchmarkDisabledLedgerObserve next to the other
// disabled-path benchmarks in bench-smoke).
package accuracy

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/tracing"
)

// State is the freshness state of one tracked statistic.
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

// Config configures the ledger.
type Config struct {
	// Enabled switches the ledger on at construction.
	Enabled bool
}

// DefaultConfig returns the enabled configuration.
func DefaultConfig() Config { return Config{Enabled: true} }

// The ledger's fixed tuning.
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
	// maxTrackedStats bounds the ledger; once full, statistics never seen
	// before are not tracked (existing entries keep updating).
	maxTrackedStats = 4096
)

// Transition reports one state-machine edge, returned by the observation
// probes so the engine can annotate the flight recorder.
type Transition struct {
	Key   string
	Table string
	From  State
	To    State
}

// StatAccuracy is one ledger row as exposed by Snapshot — SHOW ACCURACY,
// SHOW DRIFT and /debug/accuracy all render from it.
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

type statEntry struct {
	table           string
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

// Ledger is the accuracy ledger. One instance lives inside the engine; its
// probes are called from the statement hot path, so the disabled path is a
// single field load.
type Ledger struct {
	enabled  bool
	maxStats int             // maxTrackedStats; the capacity test lowers it
	bounds   []float64       // error-factor histogram bounds (shared, read-only)
	tracer   *tracing.Tracer // state transitions print through it; nil-safe

	mu    sync.Mutex
	stats map[string]*statEntry
}

// New constructs a ledger that records when cfg.Enabled and prints its state
// transitions through tracer (nil: no trace). It is usable (and free) while
// disabled.
func New(cfg Config, tracer *tracing.Tracer) *Ledger {
	return &Ledger{
		enabled:  cfg.Enabled,
		maxStats: maxTrackedStats,
		bounds:   metrics.ErrorFactorBuckets(),
		tracer:   tracer,
		stats:    make(map[string]*statEntry),
	}
}

// Enabled reports whether probes record. Nil-safe.
func (l *Ledger) Enabled() bool { return l != nil && l.enabled }

// entry returns the tracked statistic, creating it (fresh, merged "now")
// unless the ledger is at capacity. Caller holds l.mu.
func (l *Ledger) entry(ts int64, table, key string) *statEntry {
	if e, ok := l.stats[key]; ok {
		return e
	}
	if len(l.stats) >= l.maxStats {
		return nil
	}
	e := &statEntry{
		table:        table,
		state:        StateFresh,
		lastMerge:    ts,
		lastObserved: ts,
		hist:         make([]uint64, len(l.bounds)+1),
	}
	l.stats[key] = e
	mTracked.Set(float64(len(l.stats)))
	return e
}

// transition moves e to state to, emitting the trace line and metrics.
// Caller holds l.mu. Returns the edge for flight-recorder annotation.
func (l *Ledger) transition(ts int64, key string, e *statEntry, to State) Transition {
	tr := Transition{Key: key, Table: e.table, From: e.state, To: to}
	e.state = to
	switch to {
	case StateFresh:
		mTransFresh.Inc()
	case StateAging:
		mTransAging.Inc()
	case StateDrifted:
		mTransDrifted.Inc()
		e.driftedAt = ts
	}
	l.recountDrifted()
	if l.tracer.Enabled() {
		l.tracer.Printf("accuracy q%d stat=%s %s->%s cusum=%.2f obs=%d churn=%d",
			ts, key, tr.From, tr.To, e.cusum, e.obs, e.churnSinceMerge)
	}
	return tr
}

// recountDrifted refreshes the drifted-stats gauge. Caller holds l.mu.
func (l *Ledger) recountDrifted() {
	n := 0
	for _, e := range l.stats {
		if e.state == StateDrifted {
			n++
		}
	}
	mDrifted.Set(float64(n))
}

// ageCheck applies the fresh → aging edges (clock age, DML churn). Caller
// holds l.mu.
func (l *Ledger) ageCheck(ts int64, key string, e *statEntry) {
	if e.state != StateFresh {
		return
	}
	aged := ts-e.lastMerge > agingAgeTicks
	churned := e.baseCard > 0 &&
		float64(e.churnSinceMerge) >= agingChurnFraction*float64(e.baseCard)
	if aged || churned {
		l.transition(ts, key, e, StateAging)
	}
}

// ObserveFeedback records one post-execution (estimate, actual) comparison
// for the statistic identified by key (the column-group key the feedback
// loop already uses, e.g. "owner(city)"). ef is the clamped error factor
// est/actual from feedback.ErrorFactor. Returns the state transition this
// observation caused, if any. One field load when disabled.
func (l *Ledger) ObserveFeedback(ts int64, table, key string, ef float64, baseCard int64) (Transition, bool) {
	if l == nil || !l.enabled {
		return Transition{}, false
	}
	if key == "" || ef <= 0 || math.IsNaN(ef) || math.IsInf(ef, 0) {
		return Transition{}, false
	}
	qerr := ef
	if qerr < 1 {
		qerr = 1 / qerr
	}
	absLogEF := math.Abs(math.Log(ef))

	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entry(ts, table, key)
	if e == nil {
		return Transition{}, false
	}
	mObservations.Inc()
	if baseCard > 0 {
		e.baseCard = baseCard
	}

	// Time-decayed EWMA: the blend weight grows with the logical-clock gap
	// since the previous observation, so long-idle statistics converge to
	// recent behaviour quickly while a burst of observations averages.
	gap := ts - e.lastObserved
	if gap < 0 {
		gap = 0
	}
	alpha := 1 - math.Pow(0.5, float64(gap+1)/halfLifeTicks)
	if e.obs == 0 {
		e.ewmaQError, e.ewmaLogEF = qerr, absLogEF
	} else {
		e.ewmaQError += alpha * (qerr - e.ewmaQError)
		e.ewmaLogEF += alpha * (absLogEF - e.ewmaLogEF)
	}
	e.obs++
	e.lastObserved = ts

	// Error-factor histogram (same bounds as the metrics registry family).
	i := sort.SearchFloat64s(l.bounds, ef)
	e.hist[i]++

	// One-sided CUSUM on |log error-factor|: evidence accrues only above
	// the slack k, so ordinary sampling noise never sums to a detection.
	e.cusum += absLogEF - cusumSlack
	if e.cusum < 0 {
		e.cusum = 0
	}

	l.ageCheck(ts, key, e)
	// The state machine is strictly fresh → aging → drifted: CUSUM evidence
	// alone never flips a fresh statistic (its estimates may simply have
	// always been poor); churn or age must first make it suspect.
	if e.state == StateAging && e.obs >= minObservations && e.cusum >= cusumThreshold {
		return l.transition(ts, key, e, StateDrifted), true
	}
	return Transition{}, false
}

// ObserveMerge records an archive merge (materialization) of the statistic:
// the archive just absorbed fresh sample evidence, so the statistic resets
// to fresh and its churn and drift evidence restart from zero. One field
// load when disabled.
func (l *Ledger) ObserveMerge(ts int64, table, key string) {
	if l == nil || !l.enabled {
		return
	}
	if key == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entry(ts, table, key)
	if e == nil {
		return
	}
	mMerges.Inc()
	e.merges++
	e.lastMerge = ts
	e.churnSinceMerge = 0
	e.cusum = 0
	if e.state != StateFresh {
		l.transition(ts, key, e, StateFresh)
	}
}

// RecordChurn charges rows of DML against every tracked statistic of the
// table; enough accumulated churn flips fresh statistics to aging. One
// field load when disabled.
func (l *Ledger) RecordChurn(ts int64, table string, rows int64) {
	if l == nil || !l.enabled {
		return
	}
	if rows <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	mChurnRows.Add(float64(rows))
	for key, e := range l.stats {
		if e.table != table {
			continue
		}
		e.churnSinceMerge += rows
		l.ageCheck(ts, key, e)
	}
}

// Tick runs the pure clock-age check against every tracked statistic —
// called occasionally (it takes the lock) so statistics age out even on a
// read-only workload. One field load when disabled.
func (l *Ledger) Tick(ts int64) {
	if l == nil || !l.enabled {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for key, e := range l.stats {
		l.ageCheck(ts, key, e)
	}
}

// Snapshot returns a copy of every ledger row, sorted by key. Optional
// table filters to one table's statistics; empty means all.
func (l *Ledger) Snapshot(table string) []StatAccuracy {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]StatAccuracy, 0, len(l.stats))
	for key, e := range l.stats {
		if table != "" && e.table != table {
			continue
		}
		out = append(out, StatAccuracy{
			Key:             key,
			Table:           e.table,
			State:           e.state.String(),
			Observations:    e.obs,
			EWMAQError:      e.ewmaQError,
			EWMALogEF:       e.ewmaLogEF,
			CUSUM:           e.cusum,
			ChurnSinceMerge: e.churnSinceMerge,
			LastMerge:       e.lastMerge,
			LastObserved:    e.lastObserved,
			Merges:          e.merges,
			DriftedAt:       e.driftedAt,
			Hist:            append([]uint64(nil), e.hist...),
			HistBounds:      l.bounds,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Drifted returns the snapshot rows currently in StateDrifted, sorted by
// key — the SHOW DRIFT surface.
func (l *Ledger) Drifted() []StatAccuracy {
	all := l.Snapshot("")
	out := all[:0]
	for _, s := range all {
		if s.State == StateDrifted.String() {
			out = append(out, s)
		}
	}
	return out
}

// Counts returns the number of tracked statistics per state.
func (l *Ledger) Counts() (tracked, fresh, aging, drifted int) {
	if l == nil {
		return 0, 0, 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.stats {
		tracked++
		switch e.state {
		case StateFresh:
			fresh++
		case StateAging:
			aging++
		case StateDrifted:
			drifted++
		}
	}
	return
}
