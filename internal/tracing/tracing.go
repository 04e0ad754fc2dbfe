// Package tracing is the engine's structured phase tracer. One statement
// flows through the paper's pipeline — parse → JITS prepare/sample →
// optimize → execute → feedback → archive-merge — and each phase emits a
// span line when tracing is enabled:
//
//	q17 span optimize wall=412µs cost=2416 rows=40.0
//
// plus free-form Printf lines for per-decision detail (JITS collection
// choices, feedback observations). All output is serialized behind one
// mutex, so concurrent statements tracing into the same io.Writer interleave
// at line granularity instead of racing — the raw engine.Config.Trace
// writer used to be written unsynchronized, which was a data race under
// parallel statement streams.
//
// Whether a tracer writes is fixed when it is built: a nil or disabled Tracer
// costs two nil checks per probe and reads no clock (the same discipline as
// faultinject and metrics); BenchmarkDisabledSpan proves it and `make
// bench-smoke` runs it. The tracer only prints: a statement's flight record
// takes its phase timings from the statement itself, not from spans.
package tracing

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Phase names of the engine pipeline, in execution order. Span phases are
// not restricted to these, but the engine only emits these.
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

// Tracer writes structured trace lines to one io.Writer. Safe for
// concurrent use; a nil *Tracer is valid and disabled.
type Tracer struct {
	mu sync.Mutex
	w  io.Writer // nil: disabled; never changes after New
}

// New returns a tracer writing to w; a nil w yields a disabled (but
// non-nil) tracer, so callers never have to branch.
func New(w io.Writer) *Tracer { return &Tracer{w: w} }

// Enabled reports whether trace output is being produced. Nil-safe; this is
// the fast path every probe takes first.
func (t *Tracer) Enabled() bool { return t != nil && t.w != nil }

// Printf writes one trace line (a newline is appended). No-op when
// disabled; serialized when enabled.
func (t *Tracer) Printf(format string, args ...any) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintf(t.w, format+"\n", args...)
}

// Span is one timed phase of one statement. Obtain via Tracer.Start; a nil
// Span (disabled tracer) accepts Attr and End as no-ops.
type Span struct {
	t     *Tracer
	qid   int64
	phase string
	start time.Time
	lap   time.Time // end of the previous Lap; the start before the first
	attrs []string
}

// Start opens a span for statement qid in the given phase. Returns nil when
// the tracer is disabled, which downstream Attr/Lap/End calls tolerate.
func (t *Tracer) Start(qid int64, phase string) *Span {
	if !t.Enabled() {
		return nil
	}
	now := time.Now()
	return &Span{t: t, qid: qid, phase: phase, start: now, lap: now}
}

// Attr attaches one key=value attribute to the span; values format with %v.
// Returns the span for chaining.
func (s *Span) Attr(key string, v any) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, fmt.Sprintf("%s=%v", key, v))
	return s
}

// Lap attaches the wall time since the previous Lap (since Start, for the
// first) as a microsecond attribute, so a span's laps add up to the span. On
// a nil span it is one branch and reads no clock.
func (s *Span) Lap(key string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.Attr(key, float64(now.Sub(s.lap).Nanoseconds())/1e3)
	s.lap = now
}

// End closes the span, emitting one line with the wall-clock duration and
// any attached attributes.
func (s *Span) End() {
	if s == nil {
		return
	}
	wall := time.Since(s.start).Round(time.Microsecond)
	var sb strings.Builder
	fmt.Fprintf(&sb, "q%d span %s wall=%s", s.qid, s.phase, wall)
	for _, a := range s.attrs {
		sb.WriteByte(' ')
		sb.WriteString(a)
	}
	s.t.Printf("%s", sb.String())
}
