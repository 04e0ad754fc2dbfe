package engine_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// Cross-check property: the flight recorder and the feedback store are two
// consumers of the same feedback stream (the engine's observe stage feeds
// both from one Observe call), so over any workload they must agree — every
// feedback observation the recorder logged as an error factor is exactly one
// observation in each of the store's accounts, and every drift account's
// EWMA q-error lies inside the range of symmetric q-errors the recorder saw.
// Re-optimization is armed so the merged-actuals path (captured actuals from
// superseded execution attempts, unioned with the final attempt's) is covered
// too: a divergence there would double- or under-count one consumer.
func TestFeedbackCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed replay is slow")
	}
	faultinject.Reset()
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := engine.Config{FlightRecorderCapacity: 4096}
			cfg.JITS.Enabled = true
			cfg.JITS.SMax = 0.5
			cfg.JITS.SampleSize = 800
			cfg.JITS.Seed = 7
			e := engine.New(cfg)
			e.SetReopt(2, 3)
			d, err := workload.Load(e, workload.Spec{Scale: 0.004, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range d.Queries(30, seed) {
				if _, err := e.Exec(q.SQL); err != nil {
					t.Fatalf("query %d %q: %v", i, q.SQL, err)
				}
			}

			// Count and bound the recorder's view of the feedback stream.
			recObs := 0
			minQ, maxQ := math.Inf(1), math.Inf(-1)
			for _, rec := range e.Recorder().Last(0) {
				recObs += len(rec.Feedback)
				for _, fb := range rec.Feedback {
					q := math.Max(fb.ErrorFactor, 1/fb.ErrorFactor) // symmetric q-error of the ratio
					minQ = math.Min(minQ, q)
					maxQ = math.Max(maxQ, q)
				}
			}
			if recObs == 0 {
				t.Fatal("recorder saw no feedback error factors — the cross-check tested nothing")
			}

			// The store must have consumed exactly the same stream.
			driftObs := uint64(0)
			for _, s := range e.Feedback().Snapshot("") {
				driftObs += s.Observations
				if s.EWMAQError < minQ-1e-9 || s.EWMAQError > maxQ+1e-9 {
					t.Errorf("stat %s: EWMA q-error %.4f outside observed range [%.4f, %.4f]",
						s.Key, s.EWMAQError, minQ, maxQ)
				}
				if math.IsNaN(s.EWMAQError) || math.IsInf(s.EWMAQError, 0) {
					t.Errorf("stat %s: non-finite EWMA q-error %v", s.Key, s.EWMAQError)
				}
			}
			if uint64(recObs) != driftObs || int64(recObs) != e.Feedback().TotalCount() {
				t.Fatalf("feedback consumers diverged: recorder logged %d error factors, drift accounts observed %d, StatHistory counted %d",
					recObs, driftObs, e.Feedback().TotalCount())
			}
		})
	}
}
