// Package flightrec is the engine's statement flight recorder: for every
// executed statement it builds one record holding the compact plan,
// per-operator estimated vs. actual cardinalities with their derived q-error,
// the JITS decisions that shaped the plan (tables sampled with their s1/s2
// scores and sample laps, archive hits/misses, degradation causes), the
// feedback the statement produced, and its per-phase wall timings.
//
// A record belongs to its statement from Begin to Commit: the statement
// writes every field itself, phase timings included, so the recorder keeps no
// registry of statements in flight. A committed record goes to two sinks,
// each fixed when the recorder is built: a ring buffer that SHOW QUERIES and
// the debug server read, and a trace writer that receives the record as one
// JSON line. With neither, Begin and Commit return after two checks: the
// recorder must be free when nobody is looking. Commit is an O(1) ring append
// plus, with a writer, one Write, both under a short mutex, so concurrent
// statements sharing the writer never interleave partial lines; readers take
// the same mutex and copy out, so they never observe a half-written record.
// Memory is bounded by the ring capacity plus a small post-mortem buffer: a
// statement that errors, or whose JITS preparation degraded (the signature a
// chaos fault leaves), is snapshotted into the post-mortem ring for later
// inspection even after the main ring has wrapped past it.
package flightrec

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Default ring capacities.
const (
	DefaultCapacity           = 256
	DefaultPostMortemCapacity = 32
)

// Phase names of the statement pipeline, in execution order.
const (
	PhaseParse        = "parse"
	PhasePrepare      = "jits.prepare"
	PhaseSample       = "jits.sample"
	PhaseOptimize     = "optimize"
	PhaseExecute      = "execute"
	PhaseFeedback     = "feedback"
	PhaseArchiveMerge = "archive.merge"
	PhaseReoptPlan    = "reopt.plan"
)

// OperatorStats is one plan operator's estimated vs. actual cardinality.
type OperatorStats struct {
	Op      string  `json:"op"`       // operator description, e.g. "TableScan car as c"
	EstRows float64 `json:"est_rows"` // optimizer estimate
	ActRows float64 `json:"act_rows"` // rows the operator actually emitted
	QError  float64 `json:"q_error"`  // QError(EstRows, ActRows)
}

// PhaseTiming is one pipeline phase's wall-clock duration, as the statement
// measured it (parse first, then the Phase* stages in the order they ended).
type PhaseTiming struct {
	Phase string        `json:"phase"`
	Wall  time.Duration `json:"wall_ns"`
}

// TableSample records one table's JITS collection outcome for a statement:
// the sensitivity scores it was decided on (Algorithms 2-3), the groups it
// evaluated and materialized, and, for a sampled table, the wall time of each
// step of its sampling pass.
type TableSample struct {
	Table              string  `json:"table"`
	Collected          bool    `json:"collected"`
	S1                 float64 `json:"s1"`
	S2                 float64 `json:"s2"`
	SampleRows         int     `json:"sample_rows"`
	GroupsEvaluated    int     `json:"groups_evaluated"`
	GroupsMaterialized int     `json:"groups_materialized"`
	Degraded           bool    `json:"degraded"`
	Reason             string  `json:"reason,omitempty"`

	Draw        time.Duration `json:"draw_ns,omitempty"`
	Eval        time.Duration `json:"eval_ns,omitempty"`
	Domains     time.Duration `json:"domains_ns,omitempty"`
	NDV         time.Duration `json:"ndv_ns,omitempty"`
	Materialize time.Duration `json:"materialize_ns,omitempty"`
}

// Feedback is one estimated-vs-actual selectivity the feedback loop observed
// while the statement executed: the statistic the estimate was for, the
// statistics combined into it, and the clamped error factor est/actual.
type Feedback struct {
	Stat        string   `json:"stat"`
	EstSel      float64  `json:"est_sel"`
	ActualSel   float64  `json:"actual_sel"`
	ErrorFactor float64  `json:"error_factor"`
	StatList    []string `json:"stat_list,omitempty"`
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

	// Feedback lists the feedback loop's observations, one per scan with a
	// traced estimate.
	Feedback []Feedback `json:"feedback,omitempty"`

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

	// Annotations are caller-supplied labels (engine.ExecOptions.Annotations)
	// followed by the notes the statement adds itself. The SQL service tags
	// statements that arrived through a client retry ("wire: retry attempt
	// N") or on a resumed session ("wire: resumed session"); the engine notes
	// each re-optimization and a failed re-plan ("reopt: ..."), a statistic
	// the statement's feedback moved to drifted ("accuracy: ..."), and the
	// histograms a migration moved into the catalog ("migrate: ...").
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

// Recorder is the ring buffer and the trace writer. Obtain one from New; a
// nil Recorder, like one with neither sink, records nothing.
type Recorder struct {
	w io.Writer // trace sink; nil when there is none, never changes after New

	mu     sync.Mutex
	ring   []*Record // capacity-sized circular buffer; empty when not recording
	next   int       // next slot to overwrite
	filled int       // number of live slots (≤ cap)
	total  uint64    // records ever committed

	pm       []*Record // post-mortem ring, same mechanics
	pmNext   int
	pmFilled int
}

// New returns a recorder with a ring of capacity records that also writes
// every committed record to trace, when that is non-nil, as one JSON line. A
// zero capacity keeps no ring; a negative one selects DefaultCapacity.
func New(capacity int, trace io.Writer) *Recorder {
	r := &Recorder{w: trace}
	if capacity < 0 {
		capacity = DefaultCapacity
	}
	if capacity > 0 {
		r.ring = make([]*Record, capacity)
		r.pm = make([]*Record, DefaultPostMortemCapacity)
	}
	return r
}

// Enabled reports whether the recorder keeps a ring for SHOW QUERIES and the
// debug server to read. Nil-safe.
func (r *Recorder) Enabled() bool { return r != nil && len(r.ring) > 0 }

// Recording reports whether a committed record goes anywhere: to the ring or
// to the trace writer. Nil-safe; this is the check every probe takes first.
func (r *Recorder) Recording() bool { return r != nil && (len(r.ring) > 0 || r.w != nil) }

// Capacity returns the ring size.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Begin opens the record of statement qid. The calling statement owns it,
// and fills it in, until Commit. Returns nil when the recorder has no sink.
func (r *Recorder) Begin(qid int64, sql string) *Record {
	if !r.Recording() {
		return nil
	}
	return &Record{QID: qid, SQL: sql, Start: time.Now()}
}

// Commit finalizes a record begun with Begin. With a trace writer, the record
// is written to it as one JSON line in one Write. With a ring, it is pushed
// into the ring (O(1)), and — when the statement errored or its preparation
// degraded — a post-mortem snapshot is retained in the bounded post-mortem
// buffer. A nil record (Begin without a sink) is ignored.
func (r *Recorder) Commit(rec *Record) {
	if !r.Recording() || rec == nil {
		return
	}
	var line []byte
	if r.w != nil {
		line = traceLine(rec)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if line != nil {
		// A failed trace write loses the line, not the statement.
		_, _ = r.w.Write(line)
	}
	if len(r.ring) == 0 {
		return
	}
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

// traceLine renders rec as one JSON line. A record encoding/json refuses (a
// non-finite float) still leaves a line: its identity and the reason.
func traceLine(rec *Record) []byte {
	line, err := json.Marshal(rec)
	if err != nil {
		line, _ = json.Marshal(Record{QID: rec.QID, SQL: rec.SQL, Kind: rec.Kind, Start: rec.Start, Err: "flightrec: " + err.Error()})
	}
	return append(line, '\n')
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
