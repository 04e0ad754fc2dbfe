package govern

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's state.
type BreakerState int

// The breaker states. Closed means sampling runs normally; Open means
// compile-time QSS collection is tripped off (catalog-only mode); HalfOpen
// lets a bounded number of probe statements sample again to test recovery.
const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

// String renders the state for health endpoints and SHOW METRICS labels.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return "unknown"
	}
}

// BreakerConfig configures the JITS sampling circuit breaker. The zero
// value disables it.
type BreakerConfig struct {
	// LatencyThreshold enables the breaker when > 0: the breaker trips when
	// the rolling mean sampling latency exceeds it.
	LatencyThreshold time.Duration
}

func (c BreakerConfig) enabled() bool { return c.LatencyThreshold > 0 }

// The breaker's fixed tuning; LatencyThreshold is its one setting.
const (
	// breakerWindow is the rolling window over sampling latencies.
	breakerWindow = 16
	// breakerMinSamples is how many latency observations the window needs
	// before the breaker may trip.
	breakerMinSamples = breakerWindow / 2
	// breakerOpenFor is how long the breaker stays open before allowing
	// half-open probes.
	breakerOpenFor = 5 * time.Second
	// breakerHalfOpenProbes is how many probe statements must sample fast
	// before the breaker closes again.
	breakerHalfOpenProbes = 2
)

// Breaker is a closed→open→half-open circuit breaker over JITS compile-time
// sampling. It watches one rolling signal, per-table sampling latency. Under
// sustained slow sampling it opens and JITS answers from catalog stats only
// (counted as degradation, never an error). After breakerOpenFor it admits
// breakerHalfOpenProbes probe statements; if they sample fast the breaker
// closes, if not it reopens.
//
// All methods are nil-receiver safe: a nil breaker is permanently closed.
type Breaker struct {
	threshold time.Duration

	mu        sync.Mutex
	state     BreakerState
	openedAt  time.Time
	probes    int // successful half-open probes so far
	inProbe   int // probe permits handed out and not yet reported
	latencies ring

	// now is injectable for deterministic state-machine tests.
	now func() time.Time
}

// ring is a fixed-capacity rolling window with an incremental sum.
type ring struct {
	buf []float64
	n   int // filled entries
	i   int // next write position
	sum float64
}

func (r *ring) push(v float64) {
	if r.n < len(r.buf) {
		r.buf[r.i] = v
		r.sum += v
		r.n++
	} else {
		r.sum += v - r.buf[r.i]
		r.buf[r.i] = v
	}
	r.i = (r.i + 1) % len(r.buf)
}

func (r *ring) mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

func (r *ring) reset() {
	r.n, r.i, r.sum = 0, 0, 0
}

// NewBreaker builds a closed breaker from cfg. Governor builds one only when
// cfg.LatencyThreshold > 0.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{
		threshold: cfg.LatencyThreshold,
		latencies: ring{buf: make([]float64, breakerWindow)},
		now:       time.Now,
	}
}

// SetClock injects a deterministic clock for tests.
func (b *Breaker) SetClock(now func() time.Time) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.now = now
	b.mu.Unlock()
}

// State returns the current state, applying the open→half-open time
// transition so callers observe it without a probe.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	return b.state
}

// Allow reports whether a statement may pay compile-time sampling cost.
// Closed: yes. Open: no, until breakerOpenFor elapses and the breaker moves
// to half-open. Half-open: yes for up to breakerHalfOpenProbes outstanding
// probes, no for everyone else. A nil breaker always allows.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if b.inProbe+b.probes < breakerHalfOpenProbes {
			b.inProbe++
			mBreakerProbes.Inc()
			return true
		}
		return false
	default: // BreakerOpen
		return false
	}
}

// maybeHalfOpenLocked applies the open→half-open transition once
// breakerOpenFor has elapsed. Caller holds b.mu.
func (b *Breaker) maybeHalfOpenLocked() {
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= breakerOpenFor {
		b.setStateLocked(BreakerHalfOpen)
		b.probes = 0
		b.inProbe = 0
	}
}

// RecordSampling feeds one sampling-pass latency (a statement's per-table
// sampling wall time) into the breaker. Latency is the only signal the
// breaker watches.
//
// Closed: pushes into the rolling window and trips to open when the window
// has breakerMinSamples and its mean exceeds LatencyThreshold.
//
// Half-open: this is a probe reporting back. Latency at or under the
// threshold is a success — after breakerHalfOpenProbes successes the breaker
// closes and the window resets. Latency over the threshold reopens it.
func (b *Breaker) RecordSampling(d time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	switch b.state {
	case BreakerClosed:
		b.latencies.push(d.Seconds())
		if b.latencies.n >= breakerMinSamples && b.latencies.mean() > b.threshold.Seconds() {
			b.tripLocked()
		}
	case BreakerHalfOpen:
		if b.inProbe > 0 {
			b.inProbe--
		}
		if d <= b.threshold {
			b.probes++
			if b.probes >= breakerHalfOpenProbes {
				b.setStateLocked(BreakerClosed)
				b.latencies.reset()
			}
		} else {
			b.tripLocked()
		}
	}
}

// tripLocked moves to open and stamps the open time. Caller holds b.mu.
func (b *Breaker) tripLocked() {
	b.setStateLocked(BreakerOpen)
	b.openedAt = b.now()
	b.probes = 0
	b.inProbe = 0
	mBreakerTrips.Inc()
}

// setStateLocked updates the state and its gauge. Caller holds b.mu.
func (b *Breaker) setStateLocked(s BreakerState) {
	b.state = s
	mBreakerState.Set(float64(stateGauge(s)))
}

// stateGauge maps states to the exported gauge values: 0 closed,
// 1 half-open, 2 open.
func stateGauge(s BreakerState) int {
	switch s {
	case BreakerHalfOpen:
		return 1
	case BreakerOpen:
		return 2
	default:
		return 0
	}
}
