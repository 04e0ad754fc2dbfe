// Package flightrec is the engine's statement flight recorder: a fixed-size
// ring buffer that captures, for every executed statement, the compact plan,
// per-operator estimated vs. actual cardinalities with their derived
// q-error, the JITS decisions that shaped the plan (tables sampled, archive
// hits/misses, degradation causes), the feedback error factors the statement
// produced, and its per-phase wall timings.
//
// A record belongs to its statement from Begin to Commit: the statement
// writes every field itself, phase timings included, so the recorder keeps no
// registry of statements in flight. The recorder follows the repo's telemetry
// discipline: it must be free when nobody is looking. Whether it records is
// fixed when it is built (a zero capacity records nothing), and Begin and
// Commit on such a recorder return after one length check. When recording,
// Begin only allocates the record and Commit is an O(1) ring append under a
// short mutex; readers (SHOW QUERIES, the debug server) take the same mutex
// and copy out, so concurrent readers never observe a half-written record and
// never block writers for longer than one slot copy. Memory is bounded by the
// ring capacity plus a small post-mortem buffer: a statement that errors, or
// whose JITS preparation degraded (the signature a chaos fault leaves), is
// snapshotted into the post-mortem ring for later inspection even after the
// main ring has wrapped past it.
package flightrec

import (
	"sort"
	"sync"
	"time"
)

// Default ring capacities.
const (
	DefaultCapacity           = 256
	DefaultPostMortemCapacity = 32
)

// OperatorStats is one plan operator's estimated vs. actual cardinality.
type OperatorStats struct {
	Op      string  `json:"op"`       // operator description, e.g. "TableScan car as c"
	EstRows float64 `json:"est_rows"` // optimizer estimate
	ActRows float64 `json:"act_rows"` // rows the operator actually emitted
	QError  float64 `json:"q_error"`  // QError(EstRows, ActRows)
}

// PhaseTiming is one pipeline phase's wall-clock duration, as the statement
// measured it (jits.sample/jits.prepare/optimize/execute/reopt.plan/
// feedback/archive.merge, in the order they ended).
type PhaseTiming struct {
	Phase string        `json:"phase"`
	Wall  time.Duration `json:"wall_ns"`
}

// TableSample records one table's JITS collection outcome for a statement.
type TableSample struct {
	Table      string `json:"table"`
	Collected  bool   `json:"collected"`
	SampleRows int    `json:"sample_rows"`
	Degraded   bool   `json:"degraded"`
	Reason     string `json:"reason,omitempty"`
}

// Record is one statement's flight-recorder entry. A record is built by the
// engine while the statement runs and becomes immutable once Commit stores
// it; readers receive shallow copies and must not mutate the slices.
type Record struct {
	QID  int64  `json:"qid"` // engine logical-clock timestamp
	SQL  string `json:"sql"`
	Kind string `json:"kind"` // statement-kind label, matching engine_statements_total

	Start time.Time     `json:"start"`
	Wall  time.Duration `json:"wall_ns"`

	// QueueWait is how long the statement waited in the admission queue
	// before execution began; zero when admission control is disabled.
	QueueWait time.Duration `json:"queue_wait_ns,omitempty"`
	// MemPeakBytes is the statement's peak accounted memory reservation;
	// zero when the governor has no budgets configured and nothing charged.
	MemPeakBytes int64 `json:"mem_peak_bytes,omitempty"`

	// Simulated cost-model split (engine.Metrics).
	CompileSeconds float64 `json:"compile_s"`
	ExecSeconds    float64 `json:"exec_s"`

	Rows         int `json:"rows"`
	RowsAffected int `json:"rows_affected"`

	// Plan is the annotated (EXPLAIN ANALYZE-style) plan text with actuals;
	// EXPLAIN HISTORY replays it. Empty for statements without a plan.
	Plan string `json:"plan,omitempty"`

	Operators   []OperatorStats `json:"operators,omitempty"`
	WorstQError float64         `json:"worst_q_error"`

	// JITS decisions.
	Tables        []TableSample `json:"tables,omitempty"`
	ArchiveHits   int           `json:"archive_hits"`
	ArchiveMisses int           `json:"archive_misses"`
	Degraded      bool          `json:"degraded"`
	DegradeCauses []string      `json:"degrade_causes,omitempty"`

	// ErrorFactors are the feedback loop's estimated/actual error factors
	// observed while this statement executed.
	ErrorFactors []float64 `json:"error_factors,omitempty"`

	// PlanCacheHit reports that the statement executed a compiled plan from
	// the engine's plan cache (no parse/JITS-prepare/optimize phases ran).
	PlanCacheHit bool `json:"plan_cache_hit,omitempty"`

	// Reopts counts the mid-query re-optimizations this statement went
	// through: checkpoints whose observed cardinality blew past the plan's
	// estimate badly enough that the engine re-planned the unexecuted
	// remainder. Per-checkpoint details ride Annotations ("reopt: ...").
	Reopts int `json:"reopts,omitempty"`

	// ArchiveEpoch is the plan-cache epoch counter at the moment the
	// statement began: the archive/data generation it was planned against.
	// A drifted-plan post-mortem correlates this against the current epoch
	// to see how many stats-changing mutations the plan survived.
	ArchiveEpoch uint64 `json:"archive_epoch"`

	// Annotations are caller-supplied labels (engine.ExecOptions.Annotations);
	// the SQL service tags statements that arrived through a client retry
	// ("wire: retry attempt N") or on a resumed session ("wire: resumed
	// session"), so a post-mortem shows which statements rode the recovery
	// paths.
	Annotations []string `json:"annotations,omitempty"`

	// Err is the statement's error text; empty on success.
	Err string `json:"error,omitempty"`

	// Phases are the statement's stage wall times in the order the stages
	// ended, appended by the statement itself (AddPhase).
	Phases []PhaseTiming `json:"phases,omitempty"`
}

// AddPhase appends one phase's wall time, rounded to the microsecond.
func (r *Record) AddPhase(phase string, wall time.Duration) {
	r.Phases = append(r.Phases, PhaseTiming{Phase: phase, Wall: wall.Round(time.Microsecond)})
}

// QError is the standard cardinality-estimation quality metric, the
// symmetric ratio max(est, act) / min(est, act) with both sides floored at
// one row: a perfect estimate scores 1, nothing scores below it, and neither
// an empty result nor a sub-row estimate explodes the ratio.
func QError(est, act float64) float64 {
	hi, lo := max(est, 1), max(act, 1)
	if hi < lo {
		hi, lo = lo, hi
	}
	return hi / lo
}

// Recorder is the ring buffer. Obtain one from New; a nil Recorder, like a
// zero-capacity one, records nothing.
type Recorder struct {
	mu     sync.Mutex
	ring   []*Record // capacity-sized circular buffer; empty when not recording
	next   int       // next slot to overwrite
	filled int       // number of live slots (≤ cap)
	total  uint64    // records ever committed

	pm       []*Record // post-mortem ring, same mechanics
	pmNext   int
	pmFilled int
}

// New returns a recorder with a ring of capacity records: 0 builds one that
// records nothing, a negative capacity selects DefaultCapacity.
func New(capacity int) *Recorder {
	if capacity == 0 {
		return &Recorder{}
	}
	if capacity < 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		ring: make([]*Record, capacity),
		pm:   make([]*Record, DefaultPostMortemCapacity),
	}
}

// Enabled reports whether the recorder is capturing. Nil-safe; this is the
// one length check every probe takes first.
func (r *Recorder) Enabled() bool { return r != nil && len(r.ring) > 0 }

// Capacity returns the ring size.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Begin opens the record of statement qid. The calling statement owns it,
// and fills it in, until Commit. Returns nil when the recorder is disabled.
func (r *Recorder) Begin(qid int64, sql string) *Record {
	if !r.Enabled() {
		return nil
	}
	return &Record{QID: qid, SQL: sql, Start: time.Now()}
}

// Commit finalizes a record begun with Begin: it is pushed into the ring
// (O(1)), and — when the statement errored or its preparation degraded — a
// post-mortem snapshot is retained in the bounded post-mortem buffer. A nil
// record (disabled Begin) is ignored.
func (r *Recorder) Commit(rec *Record) {
	if !r.Enabled() || rec == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring[r.next] = rec
	r.next = (r.next + 1) % len(r.ring)
	if r.filled < len(r.ring) {
		r.filled++
	}
	r.total++
	if rec.Err != "" || rec.Degraded {
		r.pm[r.pmNext] = rec
		r.pmNext = (r.pmNext + 1) % len(r.pm)
		if r.pmFilled < len(r.pm) {
			r.pmFilled++
		}
	}
}

// Total returns the number of records ever committed (including ones the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Len returns the number of live records in the ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.filled
}

// Last returns shallow copies of the most recent n records in ascending
// qid (logical time) order. n ≤ 0 returns everything live. Safe to call
// concurrently with writers.
//
// The ring itself is ordered by *commit*: under concurrency a long-running
// statement with a small qid can commit after a later statement, so raw
// ring order would show qids out of sequence — SHOW QUERIES pins the sorted
// contract instead.
func (r *Recorder) Last(n int) []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := copyRing(r.ring, r.next, r.filled, n)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].QID < out[j].QID })
	return out
}

// Get returns the live record with the given qid, if the ring still holds it.
func (r *Recorder) Get(qid int64) (Record, bool) {
	if r == nil {
		return Record{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.filled; i++ {
		idx := (r.next - 1 - i + len(r.ring)) % len(r.ring)
		if rec := r.ring[idx]; rec != nil && rec.QID == qid {
			return *rec, true
		}
	}
	return Record{}, false
}

// PostMortems returns shallow copies of the retained post-mortem snapshots,
// oldest first.
func (r *Recorder) PostMortems() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return copyRing(r.pm, r.pmNext, r.pmFilled, 0)
}

// Reset drops all live records and post-mortems; the capacity is preserved.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.ring {
		r.ring[i] = nil
	}
	for i := range r.pm {
		r.pm[i] = nil
	}
	r.next, r.filled, r.total = 0, 0, 0
	r.pmNext, r.pmFilled = 0, 0
}

// copyRing copies the newest min(n, filled) records out of a circular
// buffer, oldest first. next is the slot the writer would overwrite next.
func copyRing(ring []*Record, next, filled, n int) []Record {
	if n <= 0 || n > filled {
		n = filled
	}
	out := make([]Record, 0, n)
	start := next - n
	for i := 0; i < n; i++ {
		idx := (start + i + len(ring)) % len(ring)
		if rec := ring[idx]; rec != nil {
			out = append(out, *rec)
		}
	}
	return out
}
