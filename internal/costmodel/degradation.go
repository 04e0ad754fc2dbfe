package costmodel

import "sync/atomic"

// DegradeCause says why JITS gave up collecting statistics for a table and
// the optimizer fell back to catalog statistics. It is the one enumeration of
// those reasons: it indexes the always-on counts behind DegradationCounts,
// its String is the jits_degradation_total{cause} label and the /debug/health
// key, and it stamps the table's report.
type DegradeCause uint8

const (
	DegradeNone            DegradeCause = iota // the table did not degrade
	DegradeCancelled                           // the statement's context was cancelled or its deadline expired
	DegradeBudgetExhausted                     // the statement's row or cost budget for sampling was already spent
	DegradeSamplingError                       // the sampling pass returned an error
	DegradePanic                               // collection panicked and was recovered
	DegradeMemoryBudget                        // the sample did not fit the memory reservation even after shrinking
	DegradeBreakerOpen                         // the sampling circuit breaker was open (catalog-only mode under overload)

	numDegradeCauses
)

var degradeCauseLabels = [numDegradeCauses]string{
	DegradeCancelled:       "cancelled",
	DegradeBudgetExhausted: "budget_exhausted",
	DegradeSamplingError:   "sampling_error",
	DegradePanic:           "panic",
	DegradeMemoryBudget:    "memory_budget",
	DegradeBreakerOpen:     "breaker_open",
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

// DegradationCounts is a point-in-time snapshot of a Degradation: tables that
// fell back to catalog statistics, per cause, and FallbackTables, their sum.
type DegradationCounts struct {
	SamplingErrors  int64 // the sampling pass returned an error
	BudgetExhausted int64 // the statement's row or cost budget was already spent
	Cancellations   int64 // the statement's context was cancelled or its deadline expired
	Panics          int64 // collection panicked and was recovered
	MemoryBudget    int64 // the sample could not fit the memory reservation even after shrinking
	BreakerOpen     int64 // the sampling circuit breaker was open
	FallbackTables  int64 // every table that fell back, whatever the reason (the sum of the above)
}

// Total returns the number of degradation events of any class.
func (c DegradationCounts) Total() int64 { return c.FallbackTables }

// of is the field that counts cause; nil for DegradeNone.
func (c *DegradationCounts) of(cause DegradeCause) *int64 {
	return [numDegradeCauses]*int64{
		DegradeCancelled:       &c.Cancellations,
		DegradeBudgetExhausted: &c.BudgetExhausted,
		DegradeSamplingError:   &c.SamplingErrors,
		DegradePanic:           &c.Panics,
		DegradeMemoryBudget:    &c.MemoryBudget,
		DegradeBreakerOpen:     &c.BreakerOpen,
	}[cause]
}

// Of returns the count recorded for one cause.
func (c DegradationCounts) Of(cause DegradeCause) int64 {
	if n := c.of(cause); n != nil {
		return *n
	}
	return 0
}

// Counts returns a snapshot of the counters. Safe to call concurrently with
// Record; a nil receiver snapshots to zero.
func (d *Degradation) Counts() (c DegradationCounts) {
	if d == nil {
		return c
	}
	for cause := DegradeNone + 1; cause < numDegradeCauses; cause++ {
		n := d.byCause[cause].Load()
		*c.of(cause) = n
		c.FallbackTables += n
	}
	return c
}
