package govern

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/metrics"
)

// sample reads one unlabelled series of the governor's Scrape.
func sample(t *testing.T, g *Governor, name string) float64 {
	t.Helper()
	var set metrics.Set
	g.Scrape(&set)
	for _, s := range set.Samples() {
		if s.Name == name && s.Label == "" {
			return s.Value
		}
	}
	t.Fatalf("%s missing from the governor's series", name)
	return 0
}

// TestMemGaugeReadsThePool hammers one pool with goroutines that grow,
// shrink and release reservations against its capacity. Once every one has
// released, govern_global_mem_used_bytes reads 0: the gauge is Pool.used
// itself, read at scrape time, so no interleaving of two reservations can
// leave it at a value the pool no longer holds. make race runs it under the
// detector.
func TestMemGaugeReadsThePool(t *testing.T) {
	g := New(Config{GlobalMemBudgetBytes: 64 << 10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := g.NewReservation()
			defer r.Release()
			for i := 0; i < 2000; i++ {
				n := int64(1 + (w*31+i*17)%4096)
				if r.Grow(n) == nil && i%3 == 0 {
					r.Shrink(n / 2)
				}
				if i%64 == 63 {
					r.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := sample(t, g, "govern_global_mem_used_bytes"); got != 0 {
		t.Fatalf("govern_global_mem_used_bytes = %v after every reservation released, want 0", got)
	}
	if got := g.Snapshot().GlobalMemUsed; got != 0 {
		t.Fatalf("pool holds %d bytes after every reservation released", got)
	}
	if got := sample(t, g, "govern_mem_denied_total"); got == 0 {
		t.Fatal("no growth was denied: the hammer never reached the pool's capacity")
	}
}

func TestReservationStatementBudget(t *testing.T) {
	g := New(Config{StatementMemBudgetBytes: 1000})
	r := g.NewReservation()
	defer r.Release()

	if err := r.Grow(600); err != nil {
		t.Fatalf("Grow(600) under budget: %v", err)
	}
	err := r.Grow(500)
	if err == nil {
		t.Fatal("Grow(500) past the 1000-byte budget succeeded")
	}
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("budget error not typed: %v", err)
	}
	if got := r.Used(); got != 600 {
		t.Fatalf("failed Grow changed usage: used=%d, want 600", got)
	}
	if err := r.Grow(400); err != nil {
		t.Fatalf("Grow(400) exactly to budget: %v", err)
	}
	r.Shrink(300)
	if got := r.Used(); got != 700 {
		t.Fatalf("after Shrink(300): used=%d, want 700", got)
	}
	if got := r.Peak(); got != 1000 {
		t.Fatalf("peak=%d, want 1000", got)
	}
	r.Release()
	r.Release() // idempotent
	if got := r.Used(); got != 0 {
		t.Fatalf("after Release: used=%d, want 0", got)
	}
	if got := r.Peak(); got != 1000 {
		t.Fatalf("Release cleared the peak: got %d, want 1000", got)
	}
}

func TestReservationGlobalPool(t *testing.T) {
	g := New(Config{GlobalMemBudgetBytes: 1000})
	r1, r2 := g.NewReservation(), g.NewReservation()
	defer r1.Release()
	defer r2.Release()

	if err := r1.Grow(800); err != nil {
		t.Fatalf("r1.Grow(800): %v", err)
	}
	err := r2.Grow(300)
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("pool-exceeding grow: err=%v, want ErrMemoryBudget", err)
	}
	if got := r2.Used(); got != 0 {
		t.Fatalf("failed pool grow left r2 charged: used=%d", got)
	}
	if got := g.Snapshot().GlobalMemUsed; got != 800 {
		t.Fatalf("pool used=%d, want 800", got)
	}
	r1.Release()
	if err := r2.Grow(300); err != nil {
		t.Fatalf("r2.Grow(300) after r1 released: %v", err)
	}
	if got := g.Snapshot().GlobalMemUsed; got != 300 {
		t.Fatalf("pool used=%d, want 300", got)
	}
}

func TestReservationShrinkClamps(t *testing.T) {
	g := New(Config{GlobalMemBudgetBytes: 1000})
	r := g.NewReservation()
	defer r.Release()
	if err := r.Grow(100); err != nil {
		t.Fatal(err)
	}
	r.Shrink(500) // more than reserved: clamps, never goes negative
	if got := r.Used(); got != 0 {
		t.Fatalf("used=%d after over-shrink, want 0", got)
	}
	if got := g.Snapshot().GlobalMemUsed; got != 0 {
		t.Fatalf("pool used=%d after over-shrink, want 0", got)
	}
}

func TestReservationPressureFault(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	g := New(Config{StatementMemBudgetBytes: 1 << 20})
	r := g.NewReservation()
	defer r.Release()
	if err := r.Grow(1024); err != nil {
		t.Fatalf("pre-fault Grow: %v", err)
	}

	if err := faultinject.Arm(faultinject.GovernPressure, faultinject.Spec{Every: 1}); err != nil {
		t.Fatal(err)
	}
	err := r.Grow(1)
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("Grow under govern.pressure: err=%v, want ErrMemoryBudget", err)
	}
	// The shrink is sticky: the budget stays at what was in use, so further
	// growth keeps failing even after the fault is disarmed.
	faultinject.Reset()
	if err := r.Grow(1); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("Grow after pressure shrink: err=%v, want ErrMemoryBudget", err)
	}
	if got := r.Used(); got != 1024 {
		t.Fatalf("used=%d after pressure, want 1024", got)
	}
}

func TestNilGovernorAndReservation(t *testing.T) {
	var g *Governor
	if tk, err := g.Admit(nil); tk != nil || err != nil {
		t.Fatalf("nil governor Admit = (%v, %v)", tk, err)
	}
	if g.Saturated() {
		t.Fatal("nil governor reports saturated")
	}
	if s := g.Snapshot(); s.BreakerState != "disabled" {
		t.Fatalf("nil governor snapshot breaker=%q", s.BreakerState)
	}

	var r *Reservation
	if err := r.Grow(1 << 30); err != nil {
		t.Fatalf("nil reservation Grow: %v", err)
	}
	r.Shrink(1)
	r.Release()
	if r.Used() != 0 || r.Peak() != 0 {
		t.Fatal("nil reservation reports usage")
	}
}

func TestUngovernedConfigIsFree(t *testing.T) {
	g := New(Config{})
	tk, err := g.Admit(nil)
	if tk != nil || err != nil {
		t.Fatalf("ungoverned Admit = (%v, %v)", tk, err)
	}
	tk.Release() // nil ticket must be safe
	r := g.NewReservation()
	defer r.Release()
	if err := r.Grow(1 << 40); err != nil {
		t.Fatalf("unbudgeted Grow: %v", err)
	}
	if g.SamplingBreaker() != nil {
		t.Fatal("ungoverned config built a breaker")
	}
	s := g.Snapshot()
	if s.AdmissionEnabled || s.BreakerState != "disabled" {
		t.Fatalf("ungoverned snapshot: %+v", s)
	}
}

func TestEstimateRowBytes(t *testing.T) {
	if got := EstimateRowBytes(0); got != 48 {
		t.Fatalf("EstimateRowBytes(0)=%d", got)
	}
	if got := EstimateRowBytes(3); got != 48+120 {
		t.Fatalf("EstimateRowBytes(3)=%d", got)
	}
	if got := EstimateRowBytes(-1); got != 48 {
		t.Fatalf("EstimateRowBytes(-1)=%d", got)
	}
}
