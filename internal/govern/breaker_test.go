package govern

import (
	"testing"
	"time"
)

// fakeClock is the injectable deterministic clock for breaker tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// newTestBreaker builds a breaker with the shipped tuning on a fake clock.
func newTestBreaker(t *testing.T) (*Breaker, *fakeClock) {
	t.Helper()
	b := NewBreaker(BreakerConfig{LatencyThreshold: 10 * time.Millisecond})
	clk := newFakeClock()
	b.SetClock(clk.now)
	return b, clk
}

// trip opens b the way production does: breakerMinSamples slow passes.
func trip(b *Breaker) {
	for i := 0; i < breakerMinSamples; i++ {
		b.RecordSampling(time.Hour)
	}
}

func TestBreakerTripsOnSlowSampling(t *testing.T) {
	b, _ := newTestBreaker(t)
	if !b.Allow() {
		t.Fatal("fresh breaker denies sampling")
	}
	for i := 1; i < breakerMinSamples; i++ {
		b.RecordSampling(50 * time.Millisecond)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("tripped below breakerMinSamples: state=%v", got)
	}
	b.RecordSampling(50 * time.Millisecond)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("%d slow samples: state=%v, want open", breakerMinSamples, got)
	}
	if b.Allow() {
		t.Fatal("open breaker allows sampling")
	}
}

func TestBreakerFastSamplingStaysClosed(t *testing.T) {
	b, _ := newTestBreaker(t)
	for i := 0; i < 2*breakerWindow; i++ {
		b.RecordSampling(time.Millisecond)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("fast sampling: state=%v, want closed", got)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	b, clk := newTestBreaker(t)
	trip(b)
	if b.Allow() {
		t.Fatal("open breaker allows sampling")
	}

	clk.advance(breakerOpenFor - time.Millisecond)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("before breakerOpenFor elapsed: state=%v, want open", got)
	}
	clk.advance(time.Millisecond)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("after breakerOpenFor: state=%v, want half-open", got)
	}

	// Exactly breakerHalfOpenProbes permits, no more while they are
	// outstanding.
	for i := 0; i < breakerHalfOpenProbes; i++ {
		if !b.Allow() {
			t.Fatalf("half-open breaker denied probe %d", i+1)
		}
	}
	if b.Allow() {
		t.Fatal("half-open breaker over-issued probe permits")
	}

	for i := 1; i < breakerHalfOpenProbes; i++ {
		b.RecordSampling(time.Millisecond)
		if got := b.State(); got != BreakerHalfOpen {
			t.Fatalf("%d good probes closed the breaker early: state=%v", i, got)
		}
	}
	b.RecordSampling(time.Millisecond)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("after %d good probes: state=%v, want closed", breakerHalfOpenProbes, got)
	}
	if !b.Allow() {
		t.Fatal("recovered breaker denies sampling")
	}
	// Recovery reset the window: it takes breakerMinSamples fresh slow
	// samples to trip again, not one.
	b.RecordSampling(50 * time.Millisecond)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("window not reset on recovery: state=%v", got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, clk := newTestBreaker(t)
	trip(b)
	clk.advance(breakerOpenFor)
	if !b.Allow() {
		t.Fatal("half-open breaker denied its probe")
	}
	b.RecordSampling(time.Minute) // the probe was slow: reopen
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("slow probe: state=%v, want open", got)
	}
	// The reopen restarts the breakerOpenFor timer from the failed probe.
	clk.advance(breakerOpenFor / 2)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("reopened breaker moved to half-open early: state=%v", got)
	}
	clk.advance(breakerOpenFor / 2)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("reopened breaker never re-probed: state=%v", got)
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker must always allow")
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("nil breaker state=%v", got)
	}
	b.RecordSampling(time.Hour)
	b.SetClock(time.Now)
}

func TestBreakerStateStrings(t *testing.T) {
	cases := map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerHalfOpen: "half-open",
		BreakerOpen:     "open",
		BreakerState(7): "unknown",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Fatalf("%d.String()=%q, want %q", int(s), got, want)
		}
	}
	if BreakerClosed != 0 || BreakerHalfOpen != 1 || BreakerOpen != 2 {
		t.Fatal("state values changed; the govern_breaker_state gauge reads them and SHOW METRICS consumers depend on 0/1/2")
	}
}
