package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchRecordsNameTheBenchmark reads every committed BENCH_*.json — a
// JSON list of the records cmd/benchpairs prints — and fails on a file that
// is no such list, on a workload or an end-to-end metric that BENCHMARK.json
// does not declare, and on a metric whose runs are not n a side.
func TestBenchRecordsNameTheBenchmark(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range bm.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range bm.EndToEnd {
		metrics[m.Name] = true
	}
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var records []struct {
			Parent   string `json:"parent"`
			Workload string `json:"workload"`
			N        int    `json:"n"`
			Metrics  []struct {
				Name   string    `json:"name"`
				Parent []float64 `json:"parent"`
				Change []float64 `json:"change"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(src, &records); err != nil || len(records) == 0 {
			t.Errorf("%s: not a list of benchpairs records: %v", file, err)
			continue
		}
		for i, r := range records {
			if !workloads[r.Workload] {
				t.Errorf("%s record %d: workload %q is not in BENCHMARK.json", file, i, r.Workload)
			}
			if r.Parent == "" || r.N < 1 || len(r.Metrics) == 0 {
				t.Errorf("%s record %d: parent %q, n %d, %d metrics", file, i, r.Parent, r.N, len(r.Metrics))
			}
			for _, m := range r.Metrics {
				if !metrics[m.Name] {
					t.Errorf("%s record %d: %q is not an end-to-end metric of BENCHMARK.json", file, i, m.Name)
				}
				if len(m.Parent) != r.N || len(m.Change) != r.N {
					t.Errorf("%s record %d: %s has %d and %d runs, n is %d", file, i, m.Name, len(m.Parent), len(m.Change), r.N)
				}
			}
		}
		t.Logf("%s: %d records", file, len(records))
	}
}
