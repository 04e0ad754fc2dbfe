package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// text renders s as exposition text.
func text(s Set) string {
	var sb strings.Builder
	_ = s.WriteText(&sb)
	return sb.String()
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	var s Set
	s.Histogram("lat_seconds", "latency", h)
	out := text(s)
	for _, want := range []string{
		`# TYPE lat_seconds histogram`,
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 56.05`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramDropsNonFinite(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	if h.Count() != 0 {
		t.Fatalf("non-finite observations recorded: count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestLabelledExposition(t *testing.T) {
	var s Set
	s.CounterBy("deg_total", "degradations by cause", "cause", []Series{
		{LabelValue: "panic", Value: 1},
		{LabelValue: "budget", Value: 2},
	})
	h := NewHistogram([]float64{2})
	h.Observe(1.5)
	s.HistogramBy("q", "q-error", "op", []Series{{LabelValue: "scan", Hist: h}})
	out := text(s)
	for _, want := range []string{
		"# HELP deg_total degradations by cause",
		"# TYPE deg_total counter",
		`deg_total{cause="budget"} 2`,
		`deg_total{cause="panic"} 1`,
		`q_bucket{op="scan",le="2"} 1`,
		`q_count{op="scan"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic order: budget sorts before panic.
	if strings.Index(out, `cause="budget"`) > strings.Index(out, `cause="panic"`) {
		t.Errorf("labels not sorted:\n%s", out)
	}
}

func TestExpositionSortedByName(t *testing.T) {
	var s Set
	s.Counter("zzz_total", "z", 1)
	s.Gauge("aaa", "a", 1)
	out := text(s)
	if strings.Index(out, "aaa") > strings.Index(out, "zzz_total") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestGauge(t *testing.T) {
	var s Set
	s.Gauge("depth", "queue depth", -2.5)
	if out := text(s); !strings.Contains(out, "# HELP depth queue depth\n# TYPE depth gauge\ndepth -2.5\n") {
		t.Errorf("gauge exposition:\n%s", out)
	}
}

// TestSamplesFlatten: SHOW METRICS rows are one per counter or gauge series
// and a _count/_sum pair per histogram series, sorted by name then label.
func TestSamplesFlatten(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(0.25)
	h.Observe(0.5)
	var s Set
	s.Histogram("wall_seconds", "w", h)
	s.CounterBy("stmts_total", "s", "kind", []Series{{LabelValue: "select", Value: 3}, {LabelValue: "dml", Value: 1}})
	s.Gauge("depth", "d", 2)
	got := s.Samples()
	want := []Sample{
		{Name: "depth", Value: 2},
		{Name: "stmts_total", Label: `kind="dml"`, Value: 1},
		{Name: "stmts_total", Label: `kind="select"`, Value: 3},
		{Name: "wall_seconds_count", Value: 2},
		{Name: "wall_seconds_sum", Value: 0.75},
	}
	if len(got) != len(want) {
		t.Fatalf("samples = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	h := NewHistogram([]float64{10, 100})
	var wg sync.WaitGroup
	const workers, iters = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	if got, want := h.Sum(), float64(workers*iters/200)*(199*200/2); got != want {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
}

// BenchmarkHistogramObserve prices one always-on observation (make
// bench-smoke): a bucket search and three atomic updates, no allocation.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.001)
	}
}
