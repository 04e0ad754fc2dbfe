// Package govern is the engine's memory accounting. A Reservation counts the
// bytes one statement holds and its peak; the Governor sums the live
// reservations and records every statement's peak in a histogram.
//
// The package deliberately sits below the engine: it knows nothing about SQL,
// plans, or sampling. JITS sampling and the executor's buffering operators
// call Reservation.Grow before buffering and Shrink when a transient buffer
// is dropped; the engine opens one reservation per statement and Releases it
// at the statement's end. Nothing is refused: what compile-time collection
// may cost is bounded by the JITS sensitivity analysis over a fixed-size
// sample, not here. Every Reservation method is nil-receiver safe.
package govern

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// Governor sums the engine's live reservations.
type Governor struct {
	inFlight atomic.Int64 // reservations opened and not yet released
	used     atomic.Int64 // bytes the live reservations hold
	memPeak  *metrics.Histogram
}

// New returns a governor with no live reservation.
func New() *Governor {
	return &Governor{memPeak: metrics.NewHistogram(memBuckets())}
}

// NewReservation opens a statement's memory account. It counts as in flight
// until its first Release, which must come.
func (g *Governor) NewReservation() *Reservation {
	g.inFlight.Add(1)
	return &Reservation{g: g}
}

// memBuckets spans 1 KiB .. 256 MiB in powers of four.
func memBuckets() []float64 {
	out := make([]float64, 0, 10)
	for b := float64(1024); b <= 256<<20; b *= 4 {
		out = append(out, b)
	}
	return out
}

// Snapshot is a point-in-time view of the governor for /debug/health and
// tests. A drained engine reads zero in both fields.
type Snapshot struct {
	InFlight      int64 `json:"in_flight"`
	GlobalMemUsed int64 `json:"global_mem_used_bytes"`
}

// Snapshot reports the live reservations and the bytes they hold.
func (g *Governor) Snapshot() Snapshot {
	return Snapshot{InFlight: g.inFlight.Load(), GlobalMemUsed: g.used.Load()}
}

// Scrape appends the governor's govern_* series to set.
func (g *Governor) Scrape(set *metrics.Set) {
	snap := g.Snapshot()
	set.Gauge("govern_in_flight", "Statements holding a live memory reservation.", float64(snap.InFlight))
	set.Gauge("govern_global_mem_used_bytes",
		"Bytes currently held by live memory reservations.", float64(snap.GlobalMemUsed))
	set.Histogram("govern_statement_mem_peak_bytes", "Per-statement peak reserved bytes.", g.memPeak)
}

// Reservation is one statement's memory account. Buffering operators call
// Grow before allocating and Shrink when a transient buffer is dropped; the
// engine calls Release at statement end. All methods are safe on a nil
// receiver (an unaccounted runtime) and safe for concurrent use, though in
// practice operators charge from the driver goroutine only.
type Reservation struct {
	g        *Governor
	used     atomic.Int64
	peak     atomic.Int64
	released atomic.Bool
}

// Grow counts n more bytes for this statement. A zero or negative n is a
// no-op.
func (r *Reservation) Grow(n int64) {
	if r == nil || n <= 0 {
		return
	}
	now := r.used.Add(n)
	r.g.used.Add(n)
	for peak := r.peak.Load(); now > peak; peak = r.peak.Load() {
		if r.peak.CompareAndSwap(peak, now) {
			return
		}
	}
}

// Shrink returns n bytes (for transient buffers such as sample sets or sort
// scratch). Shrinking more than is held clamps to zero.
func (r *Reservation) Shrink(n int64) {
	if r == nil || n <= 0 {
		return
	}
	for {
		cur := r.used.Load()
		give := min(n, cur)
		if r.used.CompareAndSwap(cur, cur-give) {
			r.g.used.Add(-give)
			return
		}
	}
}

// Release returns everything still held. The first Release also ends the
// reservation's time in flight and records its peak; later ones only return
// what was grown since.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	r.g.used.Add(-r.used.Swap(0))
	if r.released.CompareAndSwap(false, true) {
		r.g.inFlight.Add(-1)
		if peak := r.peak.Load(); peak > 0 {
			r.g.memPeak.Observe(float64(peak))
		}
	}
}

// Used returns the bytes currently held.
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
// deliberate estimate, not malloc truth, and every buffering site uses the
// same formula so the counts are comparable.
func EstimateRowBytes(cols int) int64 {
	if cols < 0 {
		cols = 0
	}
	return 48 + 40*int64(cols)
}
