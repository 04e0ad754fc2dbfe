package main

import (
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/value"
)

// smoke shrinks every workload to a 0.002-scale database and at most 200
// statements a round.
var smoke = map[string]sizing{
	"paper_mixed":  {scale: 0.002, n: 48},
	"collect_all":  {scale: 0.002, n: 48},
	"oltp_point":   {scale: 0.002, n: 150},
	"served_fetch": {scale: 0.002, n: 24},
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	var mf manifest
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &mf); err != nil {
		t.Fatal(err)
	}
	return mf
}

// TestSmoke runs all four workloads once, untraced and traced, and checks
// that every metric BENCHMARK.json names comes out finite, in its declared
// unit, with no failed statement.
func TestSmoke(t *testing.T) {
	mf := loadManifest(t)
	for _, w := range mf.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := measure(runOpts{workload: w.Name, seed: defaultSeed, size: smoke[w.Name], rounds: 1, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d statements failed: %s", w.Name, trace, res.Failed, res.Attempted, res.detail.FirstError)
			}
			want := mf.EndToEnd
			if trace {
				want = mf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, manifest names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, manifest says %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is not finite", w.Name, m.Name)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %g, must be positive", w.Name, m.Name, got.Value)
				}
			}
			var out strings.Builder
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last output line is not a JSON object: %v", err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("last output line has keys %v", reflect.ValueOf(last).MapKeys())
			}
		}
	}
}

// TestUnknownWorkload: a misspelt workload is an error naming the valid
// ones, not a silent no-op.
func TestUnknownWorkload(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"run", "-workload", "nope"},
		{},
	} {
		err := dispatch(args, io.Discard)
		if err == nil {
			t.Fatalf("%v: no error", args)
		}
		for _, name := range workloadNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%v: error %q does not list %s", args, err, name)
			}
		}
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json and the tables in metrics.go
// and workloads.go in step, and the manifest inside the contract's limits.
func TestManifestMatchesCode(t *testing.T) {
	mf := loadManifest(t)
	if mf.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, code says %d", mf.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(mf.Paths, []string{"bench"}) {
		t.Errorf("paths %v", mf.Paths)
	}
	if len(mf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the manifest, %d in code", len(mf.Workloads), len(specs))
	}
	for i, w := range mf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: manifest has %q / %q, code has %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in code", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: manifest has %+v, code has %+v", kind, i, m, want[i])
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd, true)
	check("per_layer", mf.PerLayer, perLayer, false)
	if len(mf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(mf.PerLayer))
	}
	if mf.EndToEnd[0].Name != "setup_s" || mf.EndToEnd[0].Unit != "s" || mf.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s missing or misdeclared: %+v", mf.EndToEnd[0])
	}
}

// TestStagedMatchesEngine proves the traced run measures the same program:
// on every workload's list the staged driver and plain Exec on a twin
// engine give identical digests, sampling decisions, result rows and
// simulated seconds.
func TestStagedMatchesEngine(t *testing.T) {
	for _, s := range specs {
		p, err := prepare(runOpts{workload: s.name, seed: holdoutSeed, size: smoke[s.name]})
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := s.newEngine(p.size, s.planCache)
		if err != nil {
			t.Fatal(err)
		}
		var sim float64
		var tablesSampled, rowsOut, hits int
		for li, list := range [][]item{p.warm, p.timed} {
			for _, it := range list {
				res, err := e.Exec(it.sql)
				if err != nil {
					t.Fatalf("%s: %s: %v", s.name, it.sql, err)
				}
				if li == 0 {
					continue
				}
				sim += res.Metrics.TotalSeconds
				rowsOut += len(res.Rows)
				if res.PlanCacheHit {
					hits++
				} else if res.Prepare != nil {
					tablesSampled += res.Prepare.CollectedTables()
				}
				if d := outcomeDigest(it.query, outcome{rows: res.Rows, affected: res.RowsAffected}); d != it.want {
					t.Fatalf("%s: engine and oracle disagree on %s", s.name, it.sql)
				}
			}
		}
		traced, te, d, err := p.stagedRound()
		if err != nil {
			t.Fatal(err)
		}
		if traced.failed != 0 {
			t.Errorf("%s: staged driver and oracle disagree: %s", s.name, traced.firstEr)
		}
		if d.tablesSampled != tablesSampled || d.rowsOut != rowsOut {
			t.Errorf("%s: staged sampled %d tables and returned %d rows, engine %d and %d", s.name, d.tablesSampled, d.rowsOut, tablesSampled, rowsOut)
		}
		if got := int(d.cacheStats().Hits); got != hits {
			t.Errorf("%s: staged driver hit its plan cache %d times, engine %d", s.name, got, hits)
		}
		if drift := math.Abs(traced.sim-sim) / sim; drift > 0.001 {
			t.Errorf("%s: simulated seconds drift %.4f%% (staged %.6f, engine %.6f)", s.name, drift*100, traced.sim, sim)
		}
		if clock := e.Now(); d.clock != clock {
			t.Errorf("%s: staged clock %d, engine clock %d", s.name, d.clock, clock)
		}
		te.Close()
		e.Close()
	}
}

// TestLists: lists are a function of the seed alone, differ between seeds,
// and contain no LIMIT (a LIMIT without a total ORDER BY would make the
// digests depend on the plan).
func TestLists(t *testing.T) {
	for _, s := range specs {
		a, err := prepare(runOpts{workload: s.name, seed: 3, size: smoke[s.name]})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := prepare(runOpts{workload: s.name, seed: 3, size: smoke[s.name]})
		c, _ := prepare(runOpts{workload: s.name, seed: 4, size: smoke[s.name]})
		if !reflect.DeepEqual(a.timed, b.timed) || a.digest != b.digest {
			t.Errorf("%s: the same seed gave different lists", s.name)
		}
		if reflect.DeepEqual(a.timed, c.timed) {
			t.Errorf("%s: different seeds gave the same list", s.name)
		}
		for _, it := range a.timed {
			if strings.Contains(it.sql, "LIMIT") {
				t.Errorf("%s: %s", s.name, it.sql)
			}
		}
	}
}

func TestRowsDigest(t *testing.T) {
	rows := [][]value.Datum{
		{value.NewInt(1), value.NewString("a"), value.NewFloat(2.5)},
		{value.NewInt(2), value.NewString("b"), value.Null},
		{value.NewInt(2), value.NewString("b"), value.Null},
	}
	perm := [][]value.Datum{rows[2], rows[0], rows[1]}
	if rowsDigest(rows) != rowsDigest(perm) {
		t.Error("digest depends on row order")
	}
	if rowsDigest(rows) == rowsDigest(rows[:2]) {
		t.Error("digest ignores a duplicate row")
	}
	changed := [][]value.Datum{rows[0], rows[1], {value.NewInt(2), value.NewString("b"), value.NewInt(0)}}
	if rowsDigest(rows) == rowsDigest(changed) {
		t.Error("digest ignores NULL vs 0")
	}
}

func TestCompare(t *testing.T) {
	lower := manifestMetric{Name: "query_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := manifestMetric{Name: "stmts_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	doc := func(reps ...float64) *e2eDoc { return &e2eDoc{Median: median(reps), Reps: reps} }
	for _, tc := range []struct {
		m    manifestMetric
		a, b *e2eDoc
		want string
	}{
		{lower, doc(10, 10.1, 10.2), doc(10.3, 10.4, 10.5), "ok"},
		{lower, doc(10, 10.1, 10.2), doc(11.5, 11.6, 11.7), "worse"},
		{lower, doc(10, 10.1, 10.2), doc(9, 10.5, 12), "unresolved"},
		{lower, doc(10, 11, 12), doc(7, 8, 9), "ok"}, // wide, but every rep of B beats every rep of A
		{higher, doc(100, 101, 102), doc(80, 81, 82), "worse"},
		{higher, doc(100, 101, 102), doc(120, 121, 122), "ok"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v → %v: %s, want %s", tc.m.Name, tc.a.Reps, tc.b.Reps, got, tc.want)
		}
	}

	// Documents with every workload and metric of the manifest at 1, then
	// oltp_point's geomean changed, a metric dropped, a workload dropped.
	mfPath := filepath.Join("..", "BENCHMARK.json")
	mf := loadManifest(t)
	dir := t.TempDir()
	write := func(name string, edit func(d *document)) string {
		d := document{Workloads: make(map[string]*workloadDoc)}
		for _, w := range mf.Workloads {
			wd := &workloadDoc{E2E: make(map[string]*e2eDoc)}
			for _, m := range mf.EndToEnd {
				wd.E2E[m.Name] = &e2eDoc{Median: 1, Reps: []float64{1, 1, 1}, Unit: m.Unit}
			}
			d.Workloads[w.Name] = wd
		}
		edit(&d)
		path := filepath.Join(dir, name)
		if err := writeJSON(path, d); err != nil {
			t.Fatal(err)
		}
		return path
	}
	geomean := func(v float64) func(*document) {
		return func(d *document) {
			d.Workloads["oltp_point"].E2E["query_geomean_ms"] = &e2eDoc{Median: v, Reps: []float64{v, v, v}, Unit: "ms"}
		}
	}
	base, same, slow := write("a.json", geomean(1)), write("b.json", geomean(1.02)), write("c.json", geomean(1.5))
	if err := cmdCompare([]string{"-benchmark", mfPath, base, same}, io.Discard); err != nil {
		t.Errorf("2%% slower geomean was reported worse: %v", err)
	}
	var out strings.Builder
	if err := cmdCompare([]string{"-benchmark", mfPath, base, slow}, &out); err == nil {
		t.Errorf("50%% slower geomean passed:\n%s", out.String())
	} else if !strings.Contains(out.String(), "1.5000 of 1") {
		t.Errorf("ratio is not given with its base:\n%s", out.String())
	}
	// The gate must not pass by omission: a document from `run -workload X`,
	// or one that lost a metric, fails.
	noMetric := write("d.json", func(d *document) { delete(d.Workloads["served_fetch"].E2E, "stmts_per_s") })
	noWorkload := write("e.json", func(d *document) { delete(d.Workloads, "collect_all") })
	for _, pair := range [][2]string{{base, noMetric}, {noMetric, base}, {base, noWorkload}, {noWorkload, noWorkload}} {
		out.Reset()
		if err := cmdCompare([]string{"-benchmark", mfPath, pair[0], pair[1]}, &out); err == nil {
			t.Errorf("compare %s %s passed with a metric missing:\n%s", filepath.Base(pair[0]), filepath.Base(pair[1]), out.String())
		} else if !strings.Contains(out.String(), "missing") {
			t.Errorf("missing metric is not reported:\n%s", out.String())
		}
	}
}

// TestVerifyUpdateKeepsAllSeeds: -update rewrites digests.json whole, so it
// refuses to run for one seed only.
func TestVerifyUpdateKeepsAllSeeds(t *testing.T) {
	if err := dispatch([]string{"verify", "-seed", "7", "-update"}, io.Discard); err == nil {
		t.Error("verify -seed 7 -update did not fail")
	}
}
