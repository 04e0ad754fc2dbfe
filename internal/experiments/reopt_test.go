package experiments

import (
	"reflect"
	"testing"
)

// TestReoptReportIgnoresRecorderSize: the terminal q-error is read from the
// flight recorder, and jitsbench -debug-addr asks for the default 256-record
// ring. Over a stream longer than that ring the report must still average
// every query, exactly as with no ring requested.
func TestReoptReportIgnoresRecorderSize(t *testing.T) {
	opts := Options{Scale: 0.002, Queries: 300, Seed: 42, SMax: 0.5, SampleSize: 200}
	want, err := Reopt(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.FlightRecorder = -1
	got, err := Reopt(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FlightRecorder -1 report:\n%+v\nwant (FlightRecorder 0):\n%+v", got.Modes, want.Modes)
	}
}

// TestReoptQuick is the fast re-optimization run CI executes (`make test`,
// `make race`): over the identical workload stream, mid-query
// re-optimization on top of plain catalog statistics must finish with less
// simulated work AND a lower terminal q-error than both static baselines —
// the catalog plans it repairs and the JITS plans that bought their
// accuracy with compile-time sampling. Everything is seeded and timings are
// the deterministic cost-model units, so the comparisons are exact
// assertions, not tendencies.
func TestReoptQuick(t *testing.T) {
	rep, err := Reopt(QuickOptions())
	if err != nil {
		t.Fatalf("Reopt: %v", err)
	}
	if len(rep.Modes) != 3 {
		t.Fatalf("got %d modes, want 3: %+v", len(rep.Modes), rep.Modes)
	}
	byMode := map[string]ReoptModeResult{}
	for _, m := range rep.Modes {
		byMode[m.Mode] = m
		if m.Queries == 0 {
			t.Fatalf("mode %s ran no queries", m.Mode)
		}
	}
	catalog, jits, reopt := byMode["catalog"], byMode["jits"], byMode["reopt"]

	if catalog.Reopts != 0 || jits.Reopts != 0 {
		t.Fatalf("static modes re-optimized: catalog=%d jits=%d", catalog.Reopts, jits.Reopts)
	}
	if reopt.Reopts == 0 {
		t.Fatal("reopt mode never re-optimized — the experiment tested nothing")
	}
	if reopt.TotalSeconds >= catalog.TotalSeconds {
		t.Errorf("reopt total %.4f s not below catalog %.4f s", reopt.TotalSeconds, catalog.TotalSeconds)
	}
	if reopt.TotalSeconds >= jits.TotalSeconds {
		t.Errorf("reopt total %.4f s not below jits %.4f s", reopt.TotalSeconds, jits.TotalSeconds)
	}
	if reopt.MeanWorstQError >= catalog.MeanWorstQError {
		t.Errorf("reopt mean terminal q-error %.3f not below catalog %.3f",
			reopt.MeanWorstQError, catalog.MeanWorstQError)
	}
	if reopt.MeanWorstQError >= jits.MeanWorstQError {
		t.Errorf("reopt mean terminal q-error %.3f not below jits %.3f",
			reopt.MeanWorstQError, jits.MeanWorstQError)
	}
	if reopt.MaxWorstQError >= catalog.MaxWorstQError {
		t.Errorf("reopt max terminal q-error %.1f not below catalog %.1f",
			reopt.MaxWorstQError, catalog.MaxWorstQError)
	}
	t.Logf("catalog: total=%.4f meanQ=%.3f; jits: total=%.4f meanQ=%.3f; reopt: total=%.4f meanQ=%.3f reopts=%d",
		catalog.TotalSeconds, catalog.MeanWorstQError,
		jits.TotalSeconds, jits.MeanWorstQError,
		reopt.TotalSeconds, reopt.MeanWorstQError, reopt.Reopts)
}
