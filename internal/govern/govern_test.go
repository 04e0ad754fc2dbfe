package govern

import (
	"sync"
	"testing"

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

// TestMemGaugeReadsThePool hammers one governor with goroutines that grow,
// shrink and release reservations. Once every one has released,
// govern_global_mem_used_bytes and govern_in_flight read 0: the gauges are
// the governor's sums themselves, read at scrape time, so no interleaving of
// two reservations can leave them at a value no reservation holds. make race
// runs it under the detector.
func TestMemGaugeReadsThePool(t *testing.T) {
	g := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := g.NewReservation()
			defer r.Release()
			for i := 0; i < 2000; i++ {
				n := int64(1 + (w*31+i*17)%4096)
				r.Grow(n)
				if i%3 == 0 {
					r.Shrink(n / 2)
				}
				if i%64 == 63 {
					r.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, name := range []string{"govern_global_mem_used_bytes", "govern_in_flight"} {
		if got := sample(t, g, name); got != 0 {
			t.Fatalf("%s = %v after every reservation released, want 0", name, got)
		}
	}
	if got := sample(t, g, "govern_statement_mem_peak_bytes_count"); got != 8 {
		t.Fatalf("peak histogram holds %v statements, want 8 (one per first Release)", got)
	}
}

// TestReservationCountsAndPeaks: Grow and Shrink move the count, the peak is
// the high-water mark, nothing is refused however large, and Release drains
// to zero and keeps the peak.
func TestReservationCountsAndPeaks(t *testing.T) {
	r := New().NewReservation()
	defer r.Release()

	r.Grow(600)
	r.Grow(400)
	r.Shrink(300)
	if got := r.Used(); got != 700 {
		t.Fatalf("after Grow(600), Grow(400), Shrink(300): used=%d, want 700", got)
	}
	if got := r.Peak(); got != 1000 {
		t.Fatalf("peak=%d, want 1000", got)
	}
	r.Grow(1 << 40)
	if got := r.Used(); got != 700+1<<40 {
		t.Fatalf("a terabyte Grow was not counted: used=%d", got)
	}
	r.Release()
	r.Release() // idempotent
	if got := r.Used(); got != 0 {
		t.Fatalf("after Release: used=%d, want 0", got)
	}
	if got := r.Peak(); got != 700+1<<40 {
		t.Fatalf("Release cleared the peak: got %d", got)
	}
}

// TestReservationGlobalPool: the governor's snapshot sums the live
// reservations, and a Release takes back only its own share.
func TestReservationGlobalPool(t *testing.T) {
	g := New()
	r1, r2 := g.NewReservation(), g.NewReservation()
	defer r2.Release()

	r1.Grow(800)
	r2.Grow(300)
	if got := g.Snapshot(); got != (Snapshot{InFlight: 2, GlobalMemUsed: 1100}) {
		t.Fatalf("two live reservations: %+v, want 2 in flight holding 1100", got)
	}
	r1.Release()
	if got := g.Snapshot(); got != (Snapshot{InFlight: 1, GlobalMemUsed: 300}) {
		t.Fatalf("after r1 released: %+v, want 1 in flight holding 300", got)
	}
	// Growth after a Release is counted and drained by the next one, but the
	// reservation left flight on its first Release.
	r1.Grow(50)
	r1.Release()
	if got := g.Snapshot(); got != (Snapshot{InFlight: 1, GlobalMemUsed: 300}) {
		t.Fatalf("after r1 grew and released again: %+v, want 1 in flight holding 300", got)
	}
}

func TestReservationShrinkClamps(t *testing.T) {
	g := New()
	r := g.NewReservation()
	defer r.Release()
	r.Grow(100)
	r.Shrink(500) // more than reserved: clamps, never goes negative
	if got := r.Used(); got != 0 {
		t.Fatalf("used=%d after over-shrink, want 0", got)
	}
	if got := g.Snapshot().GlobalMemUsed; got != 0 {
		t.Fatalf("governor holds %d after over-shrink, want 0", got)
	}
}

func TestNilGovernorAndReservation(t *testing.T) {
	var r *Reservation
	r.Grow(1 << 30)
	r.Shrink(1)
	r.Release()
	if r.Used() != 0 || r.Peak() != 0 {
		t.Fatal("nil reservation reports usage")
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
