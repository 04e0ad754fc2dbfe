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
// A nil or disabled Tracer costs one nil check plus at most one atomic load
// per probe (the same discipline as faultinject and metrics);
// BenchmarkDisabledSpan proves it and `make bench-smoke` runs it.
package tracing

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
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

// SpanObserver receives completed span timings in-process, independently of
// the textual trace writer. The engine's flight recorder implements it to
// capture per-phase wall timings without forcing trace output on. Active is
// the cheap gate: while it returns false the tracer treats the observer as
// absent and spans stay free.
type SpanObserver interface {
	Active() bool
	ObserveSpan(qid int64, phase string, wall time.Duration)
}

// Tracer writes structured trace lines to one io.Writer. Safe for
// concurrent use; a nil *Tracer is valid and disabled.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	on  atomic.Bool
	obs atomic.Pointer[SpanObserver]
}

// New returns a tracer writing to w; a nil w yields a disabled (but
// non-nil) tracer, so callers never have to branch.
func New(w io.Writer) *Tracer {
	t := &Tracer{w: w}
	t.on.Store(w != nil)
	return t
}

// Enabled reports whether trace output is being produced. Nil-safe; this is
// the one-atomic-load fast path every probe takes first.
func (t *Tracer) Enabled() bool { return t != nil && t.on.Load() }

// SetObserver installs (or, with nil, removes) the span observer. At most
// one observer is supported; the engine wires its flight recorder here.
func (t *Tracer) SetObserver(o SpanObserver) {
	if t == nil {
		return
	}
	if o == nil {
		t.obs.Store(nil)
		return
	}
	t.obs.Store(&o)
}

// observer returns the installed observer if it is currently active.
func (t *Tracer) observer() SpanObserver {
	if t == nil {
		return nil
	}
	if p := t.obs.Load(); p != nil && (*p).Active() {
		return *p
	}
	return nil
}

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
// the tracer is disabled and no active observer is installed, which
// downstream Attr/End calls tolerate.
func (t *Tracer) Start(qid int64, phase string) *Span {
	if !t.Enabled() && t.observer() == nil {
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
// first) as a microsecond attribute, so a span's laps add up to the span. It
// reads the clock only while trace output is on; on a nil span it is one
// branch.
func (s *Span) Lap(key string) {
	if s == nil || !s.t.Enabled() {
		return
	}
	now := time.Now()
	s.Attr(key, float64(now.Sub(s.lap).Nanoseconds())/1e3)
	s.lap = now
}

// End closes the span, emitting one line with the wall-clock duration and
// any attached attributes, and delivering the timing to an active observer.
func (s *Span) End() {
	if s == nil {
		return
	}
	wall := time.Since(s.start).Round(time.Microsecond)
	if obs := s.t.observer(); obs != nil {
		obs.ObserveSpan(s.qid, s.phase, wall)
	}
	if !s.t.Enabled() {
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "q%d span %s wall=%s", s.qid, s.phase, wall)
	for _, a := range s.attrs {
		sb.WriteByte(' ')
		sb.WriteString(a)
	}
	s.t.Printf("%s", sb.String())
}
