package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// readBenchmark decodes the checkout's BENCHMARK.json, whose bounds the gate
// applies.
func readBenchmark(t *testing.T) benchmark {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmark
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// runs builds n synthetic bench/run.sh results, correct and without failed
// operations, each holding every end-to-end metric at 100 except those
// overridden.
func runs(bm benchmark, n int, override map[string]float64) []result {
	out := make([]result, n)
	for i := range out {
		out[i].Correct = true
		out[i].Metrics = map[string]reading{}
		for _, m := range bm.EndToEnd {
			v := 100.0
			if o, ok := override[m.Name]; ok {
				v = o
			}
			out[i].Metrics[m.Name] = reading{v}
		}
	}
	return out
}

// TestGate feeds the decision synthetic records: a stmts_per_s drop past its
// 25 % bound fails and one within it passes, a lower-is-better metric is held
// in its own direction, and a missing metric or an incorrect run fails
// whatever the medians say.
func TestGate(t *testing.T) {
	bm := readBenchmark(t)
	parent := runs(bm, 3, nil)
	missing := runs(bm, 3, nil)
	delete(missing[1].Metrics, "rss_mean_mb")
	incorrect := runs(bm, 3, nil)
	incorrect[2].Correct = false
	failed := runs(bm, 3, nil)
	failed[0].Failed = 1
	for _, tc := range []struct {
		name   string
		change []result
		want   string // "" passes
	}{
		{"unchanged", runs(bm, 3, nil), ""},
		{"stmts_per_s 10% lower", runs(bm, 3, map[string]float64{"stmts_per_s": 90}), ""},
		{"stmts_per_s 30% lower", runs(bm, 3, map[string]float64{"stmts_per_s": 70}), "stmts_per_s: change median 70 is 30.0% worse"},
		{"stmts_per_s 30% higher", runs(bm, 3, map[string]float64{"stmts_per_s": 130}), ""},
		{"setup_s 30% higher", runs(bm, 3, map[string]float64{"setup_s": 130}), "setup_s: change median 130 is 30.0% worse"},
		{"missing metric", missing, "change run 2: no rss_mean_mb"},
		{"incorrect run", incorrect, "change run 3: correct=false failed=0"},
		{"failed operation", failed, "change run 1: correct=true failed=1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := gate(bm, parent, tc.change)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("gate failed: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("gate = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
