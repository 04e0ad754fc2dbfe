package govern

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Gate is a bounded-concurrency admission gate with a deadline-aware FIFO
// queue. At most max statements hold a Ticket at once; up to queueCap more
// wait in arrival order. A statement whose context deadline would expire
// before its predicted turn is shed immediately with ErrOverloaded rather
// than burning a queue slot it cannot use.
type Gate struct {
	max      int
	queueCap int

	mu       sync.Mutex
	inFlight int
	queue    []*waiter

	// avgService is an EWMA of ticket hold times, used to predict how long a
	// new arrival would wait behind the current queue. Guarded by mu.
	avgService time.Duration

	admitted  atomic.Int64
	shed      [len(shedReasons)]atomic.Int64
	cancelled atomic.Int64 // by the caller while queued
	wait      *metrics.Histogram

	// now is injectable for deterministic tests.
	now func() time.Time
}

// shedReasons name why admission shed a statement, the govern_shed_total
// labels: the queue was full, the predicted wait would pass the deadline, or
// the deadline passed while queued. Gate.shed counts each by index.
var shedReasons = [...]string{"queue_full", "deadline_predicted", "deadline_queue"}

const (
	shedQueueFull = iota
	shedDeadlinePredicted
	shedDeadlineQueue
)

type waiter struct {
	ready chan struct{}
	// granted is set under Gate.mu when a slot is handed to this waiter.
	// A cancelled waiter that was granted concurrently must give the slot
	// back — that re-check is what keeps cancellation leak-free.
	granted bool
}

// Ticket is an admitted statement's slot. Release must be called exactly
// once; a nil Ticket (admission disabled) is safe to Release.
type Ticket struct {
	gate  *Gate
	start time.Time
	wait  time.Duration
	done  atomic.Bool
}

// NewGate builds a gate admitting max concurrent statements with a FIFO
// queue of queueCap.
func NewGate(max, queueCap int) *Gate {
	if max < 1 {
		max = 1
	}
	if queueCap < 0 {
		queueCap = 0
	}
	return &Gate{max: max, queueCap: queueCap, wait: metrics.NewHistogram(metrics.LatencyBuckets()), now: time.Now}
}

// Acquire admits the calling statement, blocking in FIFO order behind
// earlier arrivals. Outcomes:
//
//   - slot free and queue empty: admitted immediately.
//   - queue full: shed with ErrOverloaded, no slot consumed.
//   - deadline would expire before the predicted head-of-queue time (EWMA of
//     recent service times × position): shed with ErrOverloaded up front.
//   - deadline expires while queued: shed with ErrOverloaded (the statement
//     was going to time out anyway; overload is the honest cause).
//   - context cancelled while queued: returns ctx.Err() — the caller asked
//     to stop, that is not overload. The queue slot is reclaimed, and a slot
//     granted in the same instant is handed to the next waiter, never leaked.
func (g *Gate) Acquire(ctx context.Context) (*Ticket, error) {
	start := g.now()
	g.mu.Lock()
	if g.inFlight < g.max && len(g.queue) == 0 {
		g.inFlight++
		g.mu.Unlock()
		g.observeAdmit(0)
		return &Ticket{gate: g, start: start}, nil
	}
	if len(g.queue) >= g.queueCap {
		g.mu.Unlock()
		g.shed[shedQueueFull].Add(1)
		return nil, wrapOverloaded("admission queue full")
	}
	// Deadline-aware early shed: predict the wait as (queue position + 1)
	// slots at the recent average service time, spread over max lanes. A
	// statement that cannot make that cut sheds now instead of queueing to
	// certain death.
	if deadline, ok := ctx.Deadline(); ok && g.avgService > 0 {
		ahead := len(g.queue)
		predicted := g.avgService * time.Duration(ahead+1) / time.Duration(g.max)
		if g.now().Add(predicted).After(deadline) {
			g.mu.Unlock()
			g.shed[shedDeadlinePredicted].Add(1)
			return nil, wrapOverloaded("predicted queue wait exceeds deadline")
		}
	}
	w := &waiter{ready: make(chan struct{})}
	g.queue = append(g.queue, w)
	g.mu.Unlock()

	select {
	case <-w.ready:
		wait := g.now().Sub(start)
		g.observeAdmit(wait)
		return &Ticket{gate: g, start: g.now(), wait: wait}, nil
	case <-ctx.Done():
		g.mu.Lock()
		if w.granted {
			// The slot was handed to us in the same instant the context
			// ended. Pass it on rather than leaking it.
			g.inFlight--
			g.grantLocked()
			g.mu.Unlock()
		} else {
			g.removeWaiter(w)
			g.mu.Unlock()
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			g.shed[shedDeadlineQueue].Add(1)
			return nil, wrapOverloaded("deadline expired while queued")
		}
		g.cancelled.Add(1)
		return nil, ctx.Err()
	}
}

// removeWaiter deletes w from the queue. Caller holds g.mu.
func (g *Gate) removeWaiter(w *waiter) {
	for i, q := range g.queue {
		if q == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			return
		}
	}
}

// grantLocked hands free slots to waiters in FIFO order. Caller holds g.mu.
func (g *Gate) grantLocked() {
	for g.inFlight < g.max && len(g.queue) > 0 {
		w := g.queue[0]
		g.queue = g.queue[1:]
		g.inFlight++
		w.granted = true
		close(w.ready)
	}
}

// depths returns (inFlight, queued, queueCap, max) for snapshots.
func (g *Gate) depths() (int64, int64, int64, int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return int64(g.inFlight), int64(len(g.queue)), int64(g.queueCap), int64(g.max)
}

// observeAdmit records one admission and how long it queued.
func (g *Gate) observeAdmit(wait time.Duration) {
	g.admitted.Add(1)
	g.wait.Observe(wait.Seconds())
}

// shedTotal sums the shed statements over every reason.
func (g *Gate) shedTotal() int64 {
	n := int64(0)
	for i := range g.shed {
		n += g.shed[i].Load()
	}
	return n
}

// Release returns the slot and wakes the next FIFO waiter. Idempotent and
// nil-safe.
func (t *Ticket) Release() {
	if t == nil || t.gate == nil || !t.done.CompareAndSwap(false, true) {
		return
	}
	g := t.gate
	service := g.now().Sub(t.start)
	g.mu.Lock()
	g.inFlight--
	// EWMA with α = 1/4: stable enough to predict queue waits, fast enough
	// to track load shifts over a handful of statements.
	if g.avgService == 0 {
		g.avgService = service
	} else {
		g.avgService += (service - g.avgService) / 4
	}
	g.grantLocked()
	g.mu.Unlock()
}

// Wait returns how long the statement queued before admission.
func (t *Ticket) Wait() time.Duration {
	if t == nil {
		return 0
	}
	return t.wait
}

func wrapOverloaded(detail string) error {
	return &overloadError{detail: detail}
}

type overloadError struct{ detail string }

func (e *overloadError) Error() string { return ErrOverloaded.Error() + ": " + e.detail }
func (e *overloadError) Unwrap() error { return ErrOverloaded }
