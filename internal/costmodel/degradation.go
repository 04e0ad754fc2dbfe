package costmodel

import "sync/atomic"

// DegradeCause says why JITS gave up collecting statistics for a table and
// the optimizer fell back to catalog statistics. It is the one enumeration of
// those reasons: it indexes the always-on counts behind DegradationCounts,
// its String is the jits_degradation_total{cause} label and the /debug/health
// key, and it stamps the table's report.
type DegradeCause uint8

const (
	DegradeNone          DegradeCause = iota // the table did not degrade
	DegradeCancelled                         // the statement's context was cancelled or its deadline expired
	DegradeSamplingError                     // the sampling pass returned an error
	DegradePanic                             // collection panicked and was recovered

	numDegradeCauses
)

var degradeCauseLabels = [numDegradeCauses]string{
	DegradeCancelled:     "cancelled",
	DegradeSamplingError: "sampling_error",
	DegradePanic:         "panic",
}

// String returns the cause's metric label.
func (c DegradeCause) String() string { return degradeCauseLabels[c] }

// DegradeCauses lists every cause a table can degrade for.
func DegradeCauses() []DegradeCause {
	var out []DegradeCause
	for c := DegradeNone + 1; c < numDegradeCauses; c++ {
		out = append(out, c)
	}
	return out
}

// Degradation counts the graceful-degradation events of a JITS instance, by
// cause. The counts are cumulative over the engine's lifetime and safe for
// concurrent use, mirroring the monitor counters a production optimizer
// would expose.
type Degradation struct {
	byCause [numDegradeCauses]atomic.Int64
}

// Record counts one table degraded for the given cause.
func (d *Degradation) Record(c DegradeCause) { d.byCause[c].Add(1) }

// DegradationCounts is a point-in-time snapshot of a Degradation: the tables
// that fell back to catalog statistics, by cause and in total.
type DegradationCounts struct {
	byCause [numDegradeCauses]int64 // DegradeNone's slot stays zero
	Total   int64                   // every table that fell back, whatever the cause
}

// Of returns the count recorded for one cause.
func (c DegradationCounts) Of(cause DegradeCause) int64 { return c.byCause[cause] }

// Counts returns a snapshot of the counters. Safe to call concurrently with
// Record; a nil receiver snapshots to zero.
func (d *Degradation) Counts() (c DegradationCounts) {
	if d == nil {
		return c
	}
	for cause := range d.byCause {
		c.byCause[cause] = d.byCause[cause].Load()
		c.Total += c.byCause[cause]
	}
	return c
}
