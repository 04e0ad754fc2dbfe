package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/debugserver"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/flightrec"
)

func TestTable2Ratios(t *testing.T) {
	rows, err := Table2(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Table] = r
		if r.Rows <= 0 {
			t.Errorf("%s has %d rows", r.Table, r.Rows)
		}
	}
	// Ratio car:owner ≈ 1.43, accidents:owner ≈ 4.29 (paper Table 2).
	carRatio := float64(byName["car"].Rows) / float64(byName["owner"].Rows)
	accRatio := float64(byName["accidents"].Rows) / float64(byName["owner"].Rows)
	if carRatio < 1.35 || carRatio > 1.51 {
		t.Errorf("car/owner ratio = %v, want ≈1.43", carRatio)
	}
	if accRatio < 4.1 || accRatio > 4.5 {
		t.Errorf("accidents/owner ratio = %v, want ≈4.29", accRatio)
	}
}

func TestTable3Shapes(t *testing.T) {
	rows, err := Table3(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("cases = %d", len(rows))
	}
	byCase := map[string]Table3Row{}
	for _, r := range rows {
		byCase[r.Case] = r
		if r.Total <= 0 {
			t.Errorf("case %s total = %v", r.Case, r.Total)
		}
	}
	// JITS adds compilation overhead over the corresponding non-JITS case.
	if !(byCase["1-b"].Compile > byCase["1-a"].Compile) {
		t.Errorf("1-b compile %v should exceed 1-a compile %v",
			byCase["1-b"].Compile, byCase["1-a"].Compile)
	}
	if !(byCase["2-b"].Compile > byCase["2-a"].Compile) {
		t.Errorf("2-b compile %v should exceed 2-a compile %v",
			byCase["2-b"].Compile, byCase["2-a"].Compile)
	}
	// The paper's headline: with no initial statistics, JITS cuts execution
	// time and wins on total despite the overhead.
	if !(byCase["1-b"].Exec < byCase["1-a"].Exec) {
		t.Errorf("1-b exec %v should beat 1-a exec %v",
			byCase["1-b"].Exec, byCase["1-a"].Exec)
	}
	if !(byCase["1-b"].Total < byCase["1-a"].Total) {
		t.Errorf("1-b total %v should beat 1-a total %v",
			byCase["1-b"].Total, byCase["1-a"].Total)
	}
}

func TestWorkloadShapesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment in -short mode")
	}
	opts := QuickOptions()
	fig3, err := Figure3(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range AllSettings() {
		box := fig3.Boxes[s]
		if box.Median <= 0 || box.Min > box.Median || box.Median > box.Max {
			t.Errorf("%s box malformed: %+v", s, box)
		}
		if len(fig3.Timings[s]) != opts.Queries {
			t.Errorf("%s timings = %d, want %d", s, len(fig3.Timings[s]), opts.Queries)
		}
	}
	// Figure 3 shape: JITS beats No Stats on mean and median; General
	// Stats is no worse than No Stats.
	jits := fig3.Boxes[SettingJITS]
	noStats := fig3.Boxes[SettingNoStats]
	general := fig3.Boxes[SettingGeneralStats]
	if !(jits.Median < noStats.Median) {
		t.Errorf("JITS median %v should beat No Stats median %v", jits.Median, noStats.Median)
	}
	if !(jits.Mean < noStats.Mean) {
		t.Errorf("JITS mean %v should beat No Stats mean %v", jits.Mean, noStats.Mean)
	}
	if !(general.Median <= noStats.Median*1.05) {
		t.Errorf("General Stats median %v should not lose to No Stats %v", general.Median, noStats.Median)
	}

	// Figure 5 shape: more queries improve than degrade under JITS vs
	// general stats, and execution time improves on average (the drift
	// stales the pre-collected statistics; JITS recollects).
	pts, sum := Scatter(fig3.Timings[SettingGeneralStats], fig3.Timings[SettingJITS])
	if len(pts) != opts.Queries {
		t.Fatalf("points = %d", len(pts))
	}
	if sum.Improved <= sum.Degraded {
		t.Errorf("vs general stats: improved %d vs degraded %d — JITS must win the majority",
			sum.Improved, sum.Degraded)
	}
	var genExec, jitsExec float64
	for i := range fig3.Timings[SettingGeneralStats] {
		genExec += fig3.Timings[SettingGeneralStats][i].Exec
		jitsExec += fig3.Timings[SettingJITS][i].Exec
	}
	if !(jitsExec < genExec) {
		t.Errorf("JITS total exec %v should beat general stats %v", jitsExec, genExec)
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	opts := QuickOptions()
	pts, err := Figure6(opts, []float64{0, 0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Compilation time decreases as s_max rises (fewer collections); at
	// s_max = 1 it is minimal (no collection ever).
	if !(pts[0].AvgCompile > pts[1].AvgCompile) {
		t.Errorf("compile at smax 0 (%v) should exceed smax 0.5 (%v)", pts[0].AvgCompile, pts[1].AvgCompile)
	}
	if !(pts[1].AvgCompile >= pts[2].AvgCompile) {
		t.Errorf("compile at smax 0.5 (%v) should be >= smax 1 (%v)", pts[1].AvgCompile, pts[2].AvgCompile)
	}
	// Execution time at s_max = 1 (never collect) must be the worst or tied.
	if pts[2].AvgExec < pts[0].AvgExec*0.95 {
		t.Errorf("exec at smax 1 (%v) should not beat smax 0 (%v)", pts[2].AvgExec, pts[0].AvgExec)
	}
}

func TestSummarizeQuartiles(t *testing.T) {
	timings := []QueryTiming{
		{Total: 1}, {Total: 2}, {Total: 3}, {Total: 4}, {Total: 5},
	}
	box := Summarize(timings)
	if box.Min != 1 || box.Max != 5 || box.Median != 3 || box.Q1 != 2 || box.Q3 != 4 || box.Mean != 3 {
		t.Errorf("box = %+v", box)
	}
	if got := Summarize(nil); got != (BoxStats{}) {
		t.Errorf("empty box = %+v", got)
	}
}

func TestScatterSummary(t *testing.T) {
	base := []QueryTiming{{Total: 10}, {Total: 10}, {Total: 10}}
	jits := []QueryTiming{{Total: 5}, {Total: 20}, {Total: 10}}
	pts, sum := Scatter(base, jits)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if sum.Improved != 1 || sum.Degraded != 1 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestSettingStrings(t *testing.T) {
	names := map[Setting]string{
		SettingNoStats:       "No Stats",
		SettingGeneralStats:  "General Stats",
		SettingWorkloadStats: "Workload Stats",
		SettingJITS:          "JITS",
		Setting(9):           "Setting(9)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestOLTPShape(t *testing.T) {
	opts := QuickOptions()
	opts.Queries = 60
	res, err := OLTP(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("modes = %d", len(res))
	}
	byMode := map[string]OLTPResult{}
	for _, r := range res {
		byMode[r.Mode] = r
	}
	disabled := byMode["JITS disabled"]
	sensit := byMode["JITS + sensitivity"]
	forced := byMode["JITS forced"]
	// §3.5: forced collection makes simple queries slower overall.
	if !(forced.AvgTotal > disabled.AvgTotal) {
		t.Errorf("forced JITS %v should lose to disabled %v on OLTP", forced.AvgTotal, disabled.AvgTotal)
	}
	// The sensitivity analysis contains the damage: far less overhead than
	// forced collection.
	if !(sensit.AvgCompile < forced.AvgCompile/2) {
		t.Errorf("sensitivity compile %v should be well below forced %v", sensit.AvgCompile, forced.AvgCompile)
	}
}

// TestOLTPRunsAtParallelism: Options.Parallelism reaches every engine the
// OLTP experiment builds — a scan there explains under a Gather header — and,
// parallelism changing wall clock only, the report equals the serial one.
func TestOLTPRunsAtParallelism(t *testing.T) {
	opts := QuickOptions()
	opts.Queries = 20
	serial, err := OLTP(opts)
	if err != nil {
		t.Fatal(err)
	}
	var engines []*engine.Engine
	opts.Parallelism = 2
	opts.OnEngine = func(e *engine.Engine) { engines = append(engines, e) }
	parallel, err := OLTP(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(engines) != 3 {
		t.Fatalf("OLTP built %d engines, want 3", len(engines))
	}
	for i, e := range engines {
		res, err := e.Exec(`EXPLAIN SELECT id FROM car WHERE year > 1995`)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(res.Plan, "Gather(workers=2)") {
			t.Errorf("engine %d plans a scan serially at Parallelism 2:\n%s", i, res.Plan)
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("report at dop 2:\n%+v\nserial:\n%+v", parallel, serial)
	}
}

// TestTracedExperimentMatchesUntraced is jitsbench -trace: with Options.Trace
// set, every statement of every engine the experiment builds writes one
// decodable flight record — qids 1..n per engine, in order — and the report
// is the untraced one.
func TestTracedExperimentMatchesUntraced(t *testing.T) {
	opts := QuickOptions()
	opts.Queries = 20
	plain, err := OLTP(opts)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	var engines []*engine.Engine
	opts.Trace = &trace
	opts.OnEngine = func(e *engine.Engine) { engines = append(engines, e) }
	traced, err := OLTP(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("traced report:\n%+v\nuntraced:\n%+v", traced, plain)
	}
	var qids []int64
	selects := 0
	sc := bufio.NewScanner(&trace)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec flightrec.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("trace line %d does not decode: %v\n%s", len(qids)+1, err, sc.Bytes())
		}
		qids = append(qids, rec.QID)
		if rec.Kind == "select" {
			selects++
		}
	}
	var want []int64
	for _, e := range engines {
		for qid := int64(1); qid <= e.Now(); qid++ {
			want = append(want, qid)
		}
	}
	if !reflect.DeepEqual(qids, want) {
		t.Errorf("trace qids %v, want 1..n for each of the %d engines %v", qids, len(engines), want)
	}
	if selects != 3*opts.Queries {
		t.Errorf("%d select records, want %d", selects, 3*opts.Queries)
	}
}

// TestWorkloadDegradationColumn: with sampling faults armed the JITS
// setting keeps producing timings for the full stream (graceful
// degradation), and the per-query Degraded column records the fallbacks.
func TestWorkloadDegradationColumn(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Arm(faultinject.SamplingRows, faultinject.Spec{Every: 2}); err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.Queries = 30
	timings, err := RunWorkload(SettingJITS, opts)
	if err != nil {
		t.Fatalf("workload must survive sampling faults: %v", err)
	}
	if len(timings) != opts.Queries {
		t.Fatalf("timings = %d, want %d", len(timings), opts.Queries)
	}
	degraded := 0
	for _, qt := range timings {
		degraded += qt.Degraded
	}
	if degraded == 0 {
		t.Fatal("no query reported degraded tables although sampling faults fired")
	}
	faultinject.Reset()

	// Fault-free, the column stays zero.
	clean, err := RunWorkload(SettingJITS, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, qt := range clean {
		if qt.Degraded != 0 {
			t.Fatalf("query %d degraded=%d on a fault-free run", qt.Index, qt.Degraded)
		}
	}
}

// TestParallelSpeedupQuick runs a small sweep — a tiny and the default
// chunk size, serial and dop 2 — relying on the sweep's built-in fingerprint
// and simulated-cost cross-checks to fail on any divergence.
func TestParallelSpeedupQuick(t *testing.T) {
	opts := QuickOptions()
	opts.Queries = 60
	rows, err := ParallelSpeedup(opts, []int{64, 4096}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if rows[0].ChunkSize != 64 || rows[0].Workers != 1 || rows[0].Speedup != 1 {
		t.Fatalf("baseline row malformed: %+v", rows[0])
	}
	for _, r := range rows {
		if r.Queries != 60 {
			t.Errorf("chunk %d dop %d ran %d queries, want 60", r.ChunkSize, r.Workers, r.Queries)
		}
		if r.SimSeconds <= 0 || r.WallSeconds <= 0 {
			t.Errorf("chunk %d dop %d has non-positive timings: %+v", r.ChunkSize, r.Workers, r)
		}
		if r.SimSeconds != rows[0].SimSeconds {
			t.Errorf("chunk %d dop %d simulated %v s, baseline %v s", r.ChunkSize, r.Workers, r.SimSeconds, rows[0].SimSeconds)
		}
	}
	// A baseline that is not serial must be rejected.
	if _, err := ParallelSpeedup(opts, nil, []int{2, 1}); err == nil {
		t.Error("sweep without dop 1 first must fail")
	}
}

// TestDebugServerSeesExperimentEngines is the wiring behind jitsbench
// -debug-addr: a debug server attached through Options.OnEngine, with the
// flight recorder on, serves the records of the statements an experiment ran.
func TestDebugServerSeesExperimentEngines(t *testing.T) {
	srv := debugserver.New(nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	opts := QuickOptions()
	opts.Queries = 10
	opts.FlightRecorder = -1
	opts.OnEngine = srv.SetEngine
	if _, err := OLTP(opts); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Enabled bool `json:"enabled"`
		Records []struct {
			QID  int64  `json:"qid"`
			SQL  string `json:"sql"`
			Kind string `json:"kind"`
		} `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("GET /debug/queries: status %d, %v", resp.StatusCode, err)
	}
	if !got.Enabled || len(got.Records) == 0 {
		t.Fatalf("/debug/queries: enabled=%v with %d records, want the OLTP statements", got.Enabled, len(got.Records))
	}
	last := got.Records[len(got.Records)-1]
	if last.QID == 0 || last.Kind != "select" || last.SQL == "" {
		t.Fatalf("newest record %+v, want the last OLTP lookup", last)
	}
}
