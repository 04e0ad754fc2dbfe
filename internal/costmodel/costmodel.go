// Package costmodel defines the engine's deterministic work accounting.
//
// The paper reports wall-clock seconds measured on a DB2 testbed we cannot
// reproduce; this engine instead meters *work units* accrued from the actual
// operations each component performs — rows scanned, hash probes, sample
// rows evaluated, plan candidates costed. Because the executor charges for
// work it really does, a plan picked from bad estimates genuinely accrues
// more units (larger intermediate results, wrong access paths), so the
// relative shapes of the paper's experiments survive while results stay
// deterministic and laptop-scale. Reported "seconds" are units scaled by a
// fixed calibration constant.
package costmodel

import (
	"math"
	"sync/atomic"
)

// Weights price one unit of each primitive operation. They are expressed
// relative to a sequential row touch = 1.
type Weights struct {
	SeqRow        float64 // sequential scan, per row
	IndexProbe    float64 // per index lookup (binary search)
	IndexRow      float64 // per row fetched through an index (random access)
	HashBuild     float64 // hash-join build, per row
	HashProbe     float64 // hash-join probe, per row
	SortRow       float64 // per row per comparison level
	RowOut        float64 // per row emitted by an operator
	SampleRow     float64 // statistics collection, per sampled row
	PredEval      float64 // per predicate evaluation over a sample row
	PlanCandidate float64 // optimizer, per plan alternative costed
	RunstatsRow   float64 // full statistics collection, per row per column
	HistUpdate    float64 // QSS archive maintenance, per touched bucket
}

// DefaultWeights reflect a disk-backed engine like the paper's DB2 testbed:
// random access costs roughly an order of magnitude more than a sequential
// touch (a B-tree probe descends several pages), hashing sits slightly
// above a raw touch, and metadata work is far cheaper than data work.
func DefaultWeights() Weights {
	return Weights{
		SeqRow:        1.0,
		IndexProbe:    25.0,
		IndexRow:      10.0,
		HashBuild:     1.5,
		HashProbe:     1.0,
		SortRow:       0.4,
		RowOut:        0.2,
		SampleRow:     1.2,
		PredEval:      0.15,
		PlanCandidate: 6.0,
		RunstatsRow:   0.6,
		HistUpdate:    0.8,
	}
}

// SecondsPerUnit converts accumulated work units into reported "seconds".
// The constant is calibrated so a full scan of the paper-scale ACCIDENTS
// table (4.3M rows) costs on the order of tens of seconds, matching the
// magnitude of the paper's Table 3.
const SecondsPerUnit = 1e-5

// Meter accumulates work units. It is safe for concurrent use: the total is
// a float64 updated through a lock-free compare-and-swap on its bit pattern,
// so parallel executor workers can charge the same meter without blocking
// one another. The engine keeps separate meters for compilation and
// execution so the two phases can be reported independently, as the paper
// does.
//
// Workers on a hot path should prefer a Worker sub-meter: it accumulates
// locally without synchronization and merges into the parent once.
type Meter struct {
	bits atomic.Uint64 // float64 bit pattern of the accumulated units
}

// Add accrues units of work. Safe for concurrent use.
func (m *Meter) Add(units float64) {
	if units == 0 {
		return
	}
	for {
		old := m.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + units)
		if m.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Units returns the total accumulated work.
func (m *Meter) Units() float64 { return math.Float64frombits(m.bits.Load()) }

// Seconds converts the accumulated work into calibrated seconds.
func (m *Meter) Seconds() float64 { return m.Units() * SecondsPerUnit }

// Worker returns a per-worker sub-meter charging into m. The sub-meter
// itself is NOT safe for concurrent use — each parallel worker owns one and
// calls Merge (or lets the coordinator call it) exactly once when its slice
// of the work is done, so the shared meter sees one contended update per
// worker instead of one per row.
func (m *Meter) Worker() *Worker { return &Worker{parent: m} }

// Worker is a single-goroutine accumulator that merges into a parent Meter.
// A nil Worker accepts charges and merges as a no-op, mirroring how a nil
// Meter is treated by Runtime.charge.
type Worker struct {
	parent *Meter
	units  float64
}

// Add accrues units locally without synchronization.
func (w *Worker) Add(units float64) {
	if w != nil {
		w.units += units
	}
}

// Merge flushes the local total into the parent meter and zeroes the local
// accumulator; calling it again is a no-op until more work is added.
func (w *Worker) Merge() {
	if w == nil || w.parent == nil || w.units == 0 {
		return
	}
	w.parent.Add(w.units)
	w.units = 0
}
