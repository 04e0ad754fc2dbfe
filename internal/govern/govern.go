// Package govern is the engine-wide resource governor: per-statement memory
// reservations charged against a statement budget and a global pool, a
// bounded-concurrency admission gate with a deadline-aware FIFO queue, and a
// circuit breaker that trips compile-time JITS sampling to catalog-only mode
// under sustained overload.
//
// The package deliberately sits below the engine: it knows nothing about SQL,
// plans, or sampling. Operators call Reservation.Grow before buffering, the
// engine's ExecUnboxed admits through Gate.Acquire before parsing, and the
// JITS pipeline asks Breaker.Allow before paying compile-time sampling cost.
// Every entry point is nil-receiver safe so an ungoverned engine (the zero
// Config) pays one nil check and nothing else.
//
// Failure semantics are typed, never implicit: memory exhaustion surfaces as
// ErrMemoryBudget and shed statements as ErrOverloaded, both matchable with
// errors.Is through any wrapping the engine adds. A governed statement must
// end in exactly one of {success, counted degradation, typed error} — never a
// panic and never unbounded growth.
package govern

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
)

// ErrMemoryBudget is returned (wrapped) when a reservation cannot grow
// within its statement budget or the engine-global pool. Match with
// errors.Is(err, govern.ErrMemoryBudget).
var ErrMemoryBudget = errors.New("govern: memory budget exhausted")

// ErrOverloaded is returned (wrapped) when admission control sheds a
// statement: the queue is full, or the statement would miss its deadline
// before reaching the head of the queue. Match with
// errors.Is(err, govern.ErrOverloaded).
var ErrOverloaded = errors.New("govern: overloaded")

// Config configures the governor. The zero value disables everything: no
// admission gate, no memory enforcement, no breaker.
type Config struct {
	// MaxConcurrent bounds the number of statements executing at once.
	// Zero disables admission control.
	MaxConcurrent int
	// QueueDepth bounds the admission FIFO queue; statements arriving at a
	// full queue are shed immediately with ErrOverloaded. Defaults to
	// 4×MaxConcurrent when admission control is enabled.
	QueueDepth int
	// GlobalMemBudgetBytes caps the sum of all live reservations across the
	// engine. Zero means unlimited (usage is still tracked for /debug/health).
	GlobalMemBudgetBytes int64
	// StatementMemBudgetBytes caps the accounted bytes one statement may
	// hold at once, JITS sampling buffers and buffering executor operators
	// alike. Zero means unlimited. Sampling shrinks its sample to fit;
	// operators that cannot shrink fail with ErrMemoryBudget.
	StatementMemBudgetBytes int64
	// Breaker configures the JITS sampling circuit breaker; the zero value
	// disables it.
	Breaker BreakerConfig
}

// Governor bundles the three governance layers for one engine.
type Governor struct {
	cfg     Config
	gate    *Gate
	pool    *Pool
	breaker *Breaker

	// Reservation outcomes: growths denied by the statement budget or the
	// pool, budget shrinks injected by the govern.pressure fault, and each
	// statement's peak.
	memDenied       atomic.Int64
	pressureShrinks atomic.Int64
	memPeak         *metrics.Histogram
}

// New builds a governor from cfg. Disabled layers are nil internally and
// every method tolerates that, so New(Config{}) is a valid, free governor.
func New(cfg Config) *Governor {
	g := &Governor{cfg: cfg, memPeak: metrics.NewHistogram(memBuckets())}
	if cfg.MaxConcurrent > 0 {
		depth := cfg.QueueDepth
		if depth <= 0 {
			depth = 4 * cfg.MaxConcurrent
		}
		g.gate = NewGate(cfg.MaxConcurrent, depth)
	}
	g.pool = NewPool(cfg.GlobalMemBudgetBytes)
	if cfg.Breaker.enabled() {
		g.breaker = NewBreaker(cfg.Breaker)
	}
	return g
}

// Admit passes a statement through the admission gate. With admission
// control disabled it returns (nil, nil); a nil Ticket is safe to Release.
// Otherwise it blocks in FIFO order until a slot frees, the context ends, or
// the statement is shed. See Gate.Acquire for the shed/cancel semantics.
func (g *Governor) Admit(ctx context.Context) (*Ticket, error) {
	if g == nil || g.gate == nil {
		return nil, nil
	}
	return g.gate.Acquire(ctx)
}

// NewReservation opens a per-statement memory reservation against the
// statement budget and the global pool. Always non-nil (accounting is always
// on; enforcement only applies where budgets are set) and must be Released.
func (g *Governor) NewReservation() *Reservation {
	if g == nil {
		return nil
	}
	return &Reservation{g: g, budget: g.cfg.StatementMemBudgetBytes}
}

// ObserveStatementPeak records a finished statement's peak reservation.
func (g *Governor) ObserveStatementPeak(peak int64) {
	if g != nil && peak > 0 {
		g.memPeak.Observe(float64(peak))
	}
}

// memBuckets spans 1 KiB .. 256 MiB in powers of four.
func memBuckets() []float64 {
	out := make([]float64, 0, 10)
	for b := float64(1024); b <= 256<<20; b *= 4 {
		out = append(out, b)
	}
	return out
}

// SamplingBreaker returns the JITS sampling breaker, or nil when disabled.
func (g *Governor) SamplingBreaker() *Breaker {
	if g == nil {
		return nil
	}
	return g.breaker
}

// Snapshot is a point-in-time view of governor state for /debug/health, the
// govern_* metrics and tests.
type Snapshot struct {
	AdmissionEnabled bool   `json:"admission_enabled"`
	InFlight         int64  `json:"in_flight"`
	Queued           int64  `json:"queued"`
	QueueCap         int64  `json:"queue_cap"`
	MaxConcurrent    int64  `json:"max_concurrent"`
	Admitted         int64  `json:"admitted"`
	Shed             int64  `json:"shed"`
	BreakerState     string `json:"breaker_state"`
	GlobalMemUsed    int64  `json:"global_mem_used_bytes"`
	GlobalMemBudget  int64  `json:"global_mem_budget_bytes"`
}

// Snapshot reports current governor state.
func (g *Governor) Snapshot() Snapshot {
	var s Snapshot
	if g == nil {
		s.BreakerState = "disabled"
		return s
	}
	if g.gate != nil {
		s.AdmissionEnabled = true
		s.InFlight, s.Queued, s.QueueCap, s.MaxConcurrent = g.gate.depths()
		s.Admitted = g.gate.admitted.Load()
		s.Shed = g.gate.shedTotal()
	}
	if g.breaker != nil {
		s.BreakerState = g.breaker.State().String()
	} else {
		s.BreakerState = "disabled"
	}
	s.GlobalMemUsed = g.pool.Used()
	s.GlobalMemBudget = g.pool.Cap()
	return s
}

// Scrape appends the governor's govern_* series to set: the admission gate's
// counts and depths, the memory pool's usage, the reservation outcomes and
// the sampling breaker's state, trips and probes. A disabled layer reads as
// zero.
func (g *Governor) Scrape(set *metrics.Set) {
	snap := g.Snapshot()
	shed := make([]metrics.Series, len(shedReasons))
	for i, reason := range shedReasons {
		shed[i].LabelValue = reason
	}
	cancelled, wait := int64(0), metrics.NewHistogram(metrics.LatencyBuckets()) // a disabled gate's
	if gt := g.gate; gt != nil {
		for i := range shed {
			shed[i].Value = float64(gt.shed[i].Load())
		}
		cancelled, wait = gt.cancelled.Load(), gt.wait
	}
	state, tripped, probed := g.breaker.counts()

	set.Counter("govern_admitted_total", "Statements admitted through the admission gate.", float64(snap.Admitted))
	set.CounterBy("govern_shed_total", "Statements shed by admission control, by reason.", "reason", shed)
	set.Counter("govern_queue_cancelled_total",
		"Statements cancelled by their caller while waiting in the admission queue.", float64(cancelled))
	set.Histogram("govern_queue_wait_seconds", "Time statements spent waiting in the admission queue.", wait)
	set.Gauge("govern_queue_depth", "Current admission queue depth.", float64(snap.Queued))
	set.Gauge("govern_in_flight", "Statements currently holding an admission slot.", float64(snap.InFlight))
	set.Gauge("govern_global_mem_used_bytes",
		"Bytes currently reserved from the engine-global memory pool.", float64(snap.GlobalMemUsed))
	set.Histogram("govern_statement_mem_peak_bytes", "Per-statement peak reserved bytes.", g.memPeak)
	set.Counter("govern_mem_denied_total",
		"Reservation growths denied by the statement budget or global pool.", float64(g.memDenied.Load()))
	set.Counter("govern_pressure_shrinks_total",
		"Mid-statement budget shrinks injected by the govern.pressure fault.", float64(g.pressureShrinks.Load()))
	set.Gauge("govern_breaker_state", "JITS sampling breaker state: 0 closed, 1 half-open, 2 open.", float64(state))
	set.Counter("govern_breaker_trips_total", "Times the JITS sampling breaker tripped open.", float64(tripped))
	set.Counter("govern_breaker_probes_total",
		"Half-open probe statements admitted to test sampling recovery.", float64(probed))
}

// WaitIdle blocks until no statement holds or waits for an admission slot —
// the governor's half of a graceful drain. It returns ctx.Err() if the
// context expires first. With admission control disabled there is no slot
// accounting to drain, so it returns immediately.
func (g *Governor) WaitIdle(ctx context.Context) error {
	if g == nil || g.gate == nil {
		return nil
	}
	for {
		inFlight, queued, _, _ := g.gate.depths()
		if inFlight == 0 && queued == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// Saturated reports whether the governor should be considered unhealthy for
// /debug/health: the breaker is open (sampling tripped off) or the admission
// queue is full (the next arrival would be shed).
func (g *Governor) Saturated() bool {
	if g == nil {
		return false
	}
	if g.breaker != nil && g.breaker.State() == BreakerOpen {
		return true
	}
	if g.gate != nil {
		_, queued, cap, _ := g.gate.depths()
		if cap > 0 && queued >= cap {
			return true
		}
	}
	return false
}

// Pool is the engine-global memory pool. A zero capacity means unlimited;
// usage is tracked either way so health endpoints and the
// govern_global_mem_used_bytes gauge can read it.
type Pool struct {
	cap  int64
	used atomic.Int64
}

// NewPool returns a pool with the given capacity (0 = unlimited).
func NewPool(capBytes int64) *Pool { return &Pool{cap: capBytes} }

// Cap returns the pool capacity in bytes (0 = unlimited).
func (p *Pool) Cap() int64 {
	if p == nil {
		return 0
	}
	return p.cap
}

// Used returns the bytes currently reserved from the pool.
func (p *Pool) Used() int64 {
	if p == nil {
		return 0
	}
	return p.used.Load()
}

// grow reserves n bytes, failing (without side effects) if that would exceed
// the capacity.
func (p *Pool) grow(n int64) error {
	if p == nil {
		return nil
	}
	for {
		cur := p.used.Load()
		if p.cap > 0 && cur+n > p.cap {
			return errGlobalPool
		}
		if p.used.CompareAndSwap(cur, cur+n) {
			return nil
		}
	}
}

// shrink returns n bytes to the pool.
func (p *Pool) shrink(n int64) {
	if p == nil || n == 0 {
		return
	}
	p.used.Add(-n)
}

var errGlobalPool = wrapBudget("global pool exhausted")

// Reservation is one statement's memory account. Buffering operators call
// Grow before allocating and Shrink when a transient buffer is dropped; the
// engine calls Release exactly once at statement end. All methods are safe
// on a nil receiver (ungoverned runtime) and safe for concurrent use, though
// in practice operators charge from the driver goroutine only.
type Reservation struct {
	g      *Governor
	budget int64 // statement cap; 0 = unlimited
	// shrunk, when non-zero, replaces budget: the govern.pressure fault
	// shrinks the effective budget mid-statement. An atomic keeps Grow
	// lock-free.
	shrunk atomic.Int64
	used   atomic.Int64
	peak   atomic.Int64
}

// effectiveBudget returns the current statement cap (0 = unlimited),
// accounting for pressure-induced shrinks.
func (r *Reservation) effectiveBudget() int64 {
	if shrunk := r.shrunk.Load(); shrunk != 0 {
		return shrunk
	}
	return r.budget
}

// Grow reserves n more bytes for this statement. It fails with a wrapped
// ErrMemoryBudget — leaving the reservation unchanged — if the statement
// budget or the global pool would be exceeded. A zero or negative n is a
// no-op.
func (r *Reservation) Grow(n int64) error {
	if r == nil || n <= 0 {
		return nil
	}
	// The govern.pressure fault shrinks the effective budget to what is
	// already in use: every further Grow fails, modelling a neighbour
	// stealing the remaining memory mid-statement.
	if faultinject.Enabled() {
		if err := faultinject.Hit(faultinject.GovernPressure); err != nil {
			cur := r.used.Load()
			if cur < 1 {
				cur = 1
			}
			r.shrunk.Store(cur)
			r.g.pressureShrinks.Add(1)
		}
	}
	budget := r.effectiveBudget()
	for {
		cur := r.used.Load()
		if budget > 0 && cur+n > budget {
			r.g.memDenied.Add(1)
			return wrapBudget("statement budget exhausted")
		}
		if !r.used.CompareAndSwap(cur, cur+n) {
			continue
		}
		if err := r.g.pool.grow(n); err != nil {
			r.used.Add(-n)
			r.g.memDenied.Add(1)
			return err
		}
		if now := cur + n; now > r.peak.Load() {
			r.peak.Store(now)
		}
		return nil
	}
}

// Shrink returns n bytes to the statement and the pool (for transient
// buffers such as sample sets or sort scratch). Shrinking more than is used
// clamps to zero.
func (r *Reservation) Shrink(n int64) {
	if r == nil || n <= 0 {
		return
	}
	for {
		cur := r.used.Load()
		give := n
		if give > cur {
			give = cur
		}
		if r.used.CompareAndSwap(cur, cur-give) {
			r.g.pool.shrink(give)
			return
		}
	}
}

// Release returns everything still reserved. Idempotent.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	for {
		cur := r.used.Load()
		if cur == 0 {
			return
		}
		if r.used.CompareAndSwap(cur, 0) {
			r.g.pool.shrink(cur)
			return
		}
	}
}

// Used returns the bytes currently reserved.
func (r *Reservation) Used() int64 {
	if r == nil {
		return 0
	}
	return r.used.Load()
}

// Peak returns the high-water mark of the reservation.
func (r *Reservation) Peak() int64 {
	if r == nil {
		return 0
	}
	return r.peak.Load()
}

// EstimateRowBytes is the shared accounting estimate for one materialized
// row of the given width: slice header plus per-column datum. It is a
// deliberate estimate, not malloc truth — budgets bound accounted bytes, and
// every buffering site uses the same formula so the bound is consistent.
func EstimateRowBytes(cols int) int64 {
	if cols < 0 {
		cols = 0
	}
	return 48 + 40*int64(cols)
}

func wrapBudget(detail string) error {
	return &budgetError{detail: detail}
}

type budgetError struct{ detail string }

func (e *budgetError) Error() string { return ErrMemoryBudget.Error() + ": " + e.detail }
func (e *budgetError) Unwrap() error { return ErrMemoryBudget }
