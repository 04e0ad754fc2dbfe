// Package metrics describes the engine's counts for a scraper: a family of
// series with its name, help text, Prometheus type and label key, the
// Prometheus text writer, and an always-on fixed-bucket Histogram.
//
// The package keeps no counts of its own. Every count lives as a field of
// the struct that owns it (the engine, the JITS coordinator, the archive,
// the plan cache, the governor, the feedback store, the server), and a scrape reads
// those fields into a Set. Whoever is asked — SHOW METRICS on one engine,
// /metrics on the debug server — describes exactly the instance it reads.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Type is a family's Prometheus TYPE.
type Type uint8

// The family types.
const (
	TypeCounter Type = iota
	TypeGauge
	TypeHistogram
)

func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Family is one named metric as a scrape reads it: a single series, or one
// series per value of its label.
type Family struct {
	Name, Help string
	Type       Type
	Label      string // the label key; empty for a family of one series
	Series     []Series
}

// Series is one reading of a family: a counter or gauge value, or a
// histogram.
type Series struct {
	LabelValue string
	Value      float64
	Hist       *Histogram
}

// Set is one scrape's families. Its builders append in call order; the
// writers sort by name.
type Set []Family

// Counter appends a counter of one series.
func (s *Set) Counter(name, help string, v float64) {
	*s = append(*s, Family{Name: name, Help: help, Type: TypeCounter, Series: []Series{{Value: v}}})
}

// Gauge appends a gauge of one series.
func (s *Set) Gauge(name, help string, v float64) {
	*s = append(*s, Family{Name: name, Help: help, Type: TypeGauge, Series: []Series{{Value: v}}})
}

// Histogram appends a histogram of one series.
func (s *Set) Histogram(name, help string, h *Histogram) {
	*s = append(*s, Family{Name: name, Help: help, Type: TypeHistogram, Series: []Series{{Hist: h}}})
}

// CounterBy appends a counter partitioned by the label key, one series per
// label value.
func (s *Set) CounterBy(name, help, key string, series []Series) {
	*s = append(*s, Family{Name: name, Help: help, Type: TypeCounter, Label: key, Series: series})
}

// HistogramBy appends a histogram partitioned by the label key.
func (s *Set) HistogramBy(name, help, key string, series []Series) {
	*s = append(*s, Family{Name: name, Help: help, Type: TypeHistogram, Label: key, Series: series})
}

// sorted returns the families ordered by name and each family's series by
// label value — the exposition's order, stable for diffs and tests.
func (s Set) sorted() Set {
	out := make(Set, len(s))
	copy(out, s)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	for i := range out {
		series := append([]Series(nil), out[i].Series...)
		sort.SliceStable(series, func(a, b int) bool { return series[a].LabelValue < series[b].LabelValue })
		out[i].Series = series
	}
	return out
}

// labelPair renders a series' label, e.g. `kind="select"`; empty for a
// family of one series.
func (f *Family) labelPair(sr Series) string {
	if f.Label == "" {
		return ""
	}
	return fmt.Sprintf(`%s=%q`, f.Label, sr.LabelValue)
}

// WriteText writes the set in the Prometheus text exposition format: HELP
// and TYPE headers, families sorted by name, series by label value,
// histograms as cumulative _bucket{le=...} lines plus _sum and _count.
func (s Set) WriteText(w io.Writer) error {
	var sb strings.Builder
	for _, f := range s.sorted() {
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.Name, f.Help)
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.Name, f.Type)
		for _, sr := range f.Series {
			labels := f.labelPair(sr)
			if f.Type == TypeHistogram {
				sr.Hist.expose(&sb, f.Name, labels)
				continue
			}
			fmt.Fprintf(&sb, "%s %s\n", withLabels(f.Name, labels), formatFloat(sr.Value))
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Sample is one scalar reading: a counter or gauge value, or a histogram's
// _count or _sum. SHOW METRICS renders these as rows.
type Sample struct {
	Name  string // metric name, with the _count/_sum suffix for histograms
	Label string // rendered label pair, e.g. `kind="select"`; empty if unlabeled
	Value float64
}

// Samples flattens the set into scalar readings sorted by (Name, Label).
// Histograms contribute their _count and _sum series; the per-bucket detail
// stays on the text exposition.
func (s Set) Samples() []Sample {
	var out []Sample
	for _, f := range s {
		for _, sr := range f.Series {
			label := f.labelPair(sr)
			if f.Type == TypeHistogram {
				out = append(out,
					Sample{Name: f.Name + "_count", Label: label, Value: float64(sr.Hist.Count())},
					Sample{Name: f.Name + "_sum", Label: label, Value: sr.Hist.Sum()})
				continue
			}
			out = append(out, Sample{Name: f.Name, Label: label, Value: sr.Value})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Label < out[j].Label
	})
	return out
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// withLabels joins a metric name and its label pairs.
func withLabels(name string, labels ...string) string {
	all := make([]string, 0, len(labels))
	for _, l := range labels {
		if l != "" {
			all = append(all, l)
		}
	}
	if len(all) == 0 {
		return name
	}
	return name + "{" + strings.Join(all, ",") + "}"
}

// Histogram counts observations into a fixed set of cumulative buckets —
// bounded memory, lock-free observation, always on. Non-finite observations
// are dropped rather than poisoning the sum (see feedback.ErrorFactor
// hardening for where that matters).
type Histogram struct {
	bounds  []float64 // ascending upper bounds, excluding +Inf
	counts  []atomic.Uint64
	inf     atomic.Uint64
	sumBits atomic.Uint64 // float64 bit pattern
	count   atomic.Uint64
}

// NewHistogram returns an empty histogram over the given bucket upper bounds
// (an implicit +Inf bucket is always appended).
func NewHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	for { // lock-free float add, the technique of costmodel.Meter
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.count.Add(1)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of recorded observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) expose(w io.Writer, name, labels string) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s %d\n", withLabels(name+"_bucket", labels, fmt.Sprintf(`le=%q`, formatFloat(b))), cum)
	}
	cum += h.inf.Load()
	fmt.Fprintf(w, "%s %d\n", withLabels(name+"_bucket", labels, `le="+Inf"`), cum)
	fmt.Fprintf(w, "%s %s\n", withLabels(name+"_sum", labels), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s %d\n", withLabels(name+"_count", labels), h.Count())
}

// LatencyBuckets are the default upper bounds for wall-clock latency
// histograms, in seconds: 100µs to 10s, roughly ×2.5 per step.
func LatencyBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// ErrorFactorBuckets are the default upper bounds for estimated/actual
// error-factor histograms, symmetric in log-space around the perfect 1.0.
func ErrorFactorBuckets() []float64 {
	return []float64{0.01, 0.1, 0.25, 0.5, 0.8, 1.25, 2, 4, 10, 100}
}

// QErrorBuckets are the default upper bounds for q-error histograms.
// Q-error is max(est,act)/min(est,act), so it is >= 1 by construction;
// the bounds spread the useful 1–1000 range.
func QErrorBuckets() []float64 {
	return []float64{1.05, 1.1, 1.25, 1.5, 2, 4, 10, 50, 1000}
}
