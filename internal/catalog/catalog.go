// Package catalog implements the system catalog's statistics store and the
// RUNSTATS-style general statistics collection the paper contrasts JITS
// against: per-table cardinality, per-column number of distinct values,
// min/max, null counts, most-frequent values and equi-depth distribution
// histograms. These are the "general statistics that can be used with any
// query"; the optimizer falls back on them (plus uniformity/independence
// assumptions) whenever no query-specific statistics are available.
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/histogram"
	"repro/internal/storage"
	"repro/internal/value"
)

// DefaultHistogramBuckets is the bucket target for RUNSTATS distribution
// statistics (DB2's default NUM_QUANTILES is 20).
const DefaultHistogramBuckets = 20

// DefaultFrequentValues is the number of most-frequent values retained per
// column (DB2's default NUM_FREQVALUES is 10).
const DefaultFrequentValues = 10

// FreqValue is one most-frequent-value entry.
type FreqValue struct {
	Value value.Datum
	Count int64
}

// ColumnStats are the general statistics for one column.
type ColumnStats struct {
	Column    string
	Kind      value.Kind
	NDV       int64 // number of distinct non-null values
	NullCount int64
	Min, Max  value.Datum
	Freq      []FreqValue          // most frequent values, descending count
	Hist      *histogram.Histogram // 1-D equi-depth distribution
}

// Unit returns the coordinate width of a single value in this column, used
// to close equality boxes: 1 for integers and strings, a range-relative
// epsilon for floats.
func (c *ColumnStats) Unit() float64 {
	return UnitFor(c.Kind, c.Min, c.Max)
}

// UnitFor computes the equality-box width for a column kind and value range.
func UnitFor(kind value.Kind, min, max value.Datum) float64 {
	if kind == value.KindFloat {
		span := 1.0
		if !min.IsNull() && !max.IsNull() {
			if s := max.Coord() - min.Coord(); s > 0 {
				span = s
			}
		}
		return span * 1e-9
	}
	return 1
}

// TableStats bundle everything RUNSTATS collected for one table.
type TableStats struct {
	Table           string
	Cardinality     int64
	Columns         map[string]*ColumnStats
	CollectedAt     int64 // logical timestamp of collection
	UDIAtCollection int64 // activity already counted when collected
}

// Catalog stores per-table statistics. All methods are safe for concurrent
// use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*TableStats
}

// New returns an empty catalog — the "no initial statistics" state of the
// paper's experiments, where the optimizer runs on defaults ("fake stats").
func New() *Catalog {
	return &Catalog{tables: make(map[string]*TableStats)}
}

// TableStats returns the stored statistics for a table, if any.
func (c *Catalog) TableStats(table string) (*TableStats, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.tables[table]
	return ts, ok
}

// SetTableStats installs (replacing) statistics for a table.
func (c *Catalog) SetTableStats(ts *TableStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[ts.Table] = ts
}

// Drop removes a table's statistics.
func (c *Catalog) Drop(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, table)
}

// Clear removes all statistics, returning the catalog to the cold state.
func (c *Catalog) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables = make(map[string]*TableStats)
}

// Tables lists the tables with statistics, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for t := range c.tables {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Runstats performs a full statistics collection pass over the table —
// the traditional, decoupled-from-queries collection path. It charges the
// meter per row per column and resets the table's UDI counter, as statistics
// are now fresh.
func Runstats(tbl *storage.Table, ts int64, meter *costmodel.Meter, w costmodel.Weights) (*TableStats, error) {
	schema := tbl.Schema()
	ncols := schema.NumColumns()

	stats := &TableStats{
		Table:       tbl.Name(),
		Columns:     make(map[string]*ColumnStats, ncols),
		CollectedAt: ts,
	}

	// freq counts a column's distinct values, listed in order of first
	// appearance; index finds a value's entry by its equality key.
	type colAcc struct {
		index  map[value.Key]int
		freq   []FreqValue
		coords []float64
		nulls  int64
		min    value.Datum
		max    value.Datum
	}
	accs := make([]colAcc, ncols)
	for i := range accs {
		accs[i].index = make(map[value.Key]int)
	}

	// Accumulate column-major over one snapshot: each column's pass streams
	// the dense chunk vectors (no per-row materialization), producing the
	// same per-column end state as the historical row-major scan — coords
	// append in storage order within each column either way. A value that is
	// not finite (value.Datum.Finite) is counted, as a row and as a distinct
	// value, and is no part of min, max or the histogram.
	snap := tbl.Snapshot()
	rows := snap.NumRows()
	for c := 0; c < ncols; c++ {
		a := &accs[c]
		for ci := 0; ci < snap.NumChunks(); ci++ {
			ch := snap.Chunk(ci)
			vec := ch.Col(c)
			for i := 0; i < ch.Rows(); i++ {
				d := vec.Datum(i)
				if d.IsNull() {
					a.nulls++
					continue
				}
				k := d.Key()
				at, ok := a.index[k]
				if !ok {
					at = len(a.freq)
					a.index[k] = at
					a.freq = append(a.freq, FreqValue{Value: d})
				}
				a.freq[at].Count++
				if !d.Finite() {
					continue
				}
				a.coords = append(a.coords, d.Coord())
				if a.min.IsNull() || d.Compare(a.min) < 0 {
					a.min = d
				}
				if a.max.IsNull() || d.Compare(a.max) > 0 {
					a.max = d
				}
			}
		}
	}
	meter.Add(w.RunstatsRow * float64(rows) * float64(ncols))
	stats.Cardinality = int64(rows)

	for i := 0; i < ncols; i++ {
		col := schema.Column(i)
		a := &accs[i]
		cs := &ColumnStats{
			Column:    col.Name,
			Kind:      col.Kind,
			NDV:       int64(len(a.freq)),
			NullCount: a.nulls,
			Min:       a.min,
			Max:       a.max,
		}
		// Most frequent values.
		freq := a.freq
		sort.Slice(freq, func(x, y int) bool {
			if freq[x].Count != freq[y].Count {
				return freq[x].Count > freq[y].Count
			}
			return freq[x].Value.Compare(freq[y].Value) < 0 // deterministic ties
		})
		cs.Freq = append(cs.Freq, freq[:min(DefaultFrequentValues, len(freq))]...)
		// Distribution histogram over non-null coordinates.
		if len(a.coords) > 0 {
			h, err := histogram.BuildEquiDepth(col.Name, a.coords, DefaultHistogramBuckets, cs.Unit(), ts)
			if err != nil {
				return nil, fmt.Errorf("catalog: building histogram for %s.%s: %w", tbl.Name(), col.Name, err)
			}
			cs.Hist = h
		}
		stats.Columns[col.Name] = cs
	}

	tbl.ResetUDI()
	return stats, nil
}
