package core

import (
	"slices"

	"repro/internal/costmodel"
	"repro/internal/qgm"
	"repro/internal/storage"
)

// FreshGroups reports how many predicate-group selectivities this query's
// compilation collected.
func (qs *QueryStats) FreshGroups() int { return len(qs.fresh) }

// SampleScope is what a collection reads of one table's sample, as
// ascending ordinals: the columns a draw gathers, and among them those a
// candidate group references and those an equi-join compares.
type SampleScope struct {
	Gathered, Groups, Joins []int
}

// SampleScopes runs the survey PrepareBudgeted would run over q at logical
// time ts — it refreshes the same cardinalities — and returns the scope of
// each table it would consider sampling, by name.
func (j *JITS) SampleScopes(q *qgm.Query, db *storage.Database, ts int64) (map[string]SampleScope, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	c := &collection{
		j: j, ts: ts, meter: new(costmodel.Meter),
		qs: &QueryStats{fresh: map[string]float64{}, cards: map[string]int64{}, archive: j.archive.Load(), ts: ts},
	}
	work, err := c.survey(q, db)
	if err != nil {
		return nil, err
	}
	out := make(map[string]SampleScope, len(work))
	for _, tw := range work {
		// The sets live in the JITS's scratch, which the next survey reuses.
		out[tw.report.Table] = SampleScope{slices.Clone(tw.gathered), slices.Clone(tw.groupCols), slices.Clone(tw.joinCols)}
	}
	return out, nil
}
