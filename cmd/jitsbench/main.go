// Command jitsbench regenerates the paper's evaluation: Table 2, Table 3
// and Figures 3–6, printing the same rows and series the paper reports.
//
// Usage:
//
//	jitsbench [-exp all|table2|table3|fig3|fig4|fig5|fig6|oltp|parallel|drift|reopt]
//	          [-scale 0.01] [-queries 840] [-seed 42] [-smax 0.5]
//	          [-sample 2000] [-csv dir] [-pergroup] [-parallelism 1]
//	          [-trace file|-] [-debug-addr host:port]
//	          [-debug-linger 0s] [-chunks 64,4096]
//	jitsbench -serve host:port   [-scale ...] [-plan-cache ...] [-debug-addr ...]
//	                             [-net-faults spec] [-drain 30s]
//	jitsbench -connect host:port
//
// -csv writes every figure's data as CSV files for plotting; -pergroup
// charges collection per candidate group (the paper prototype's cost
// profile). Reported seconds are calibrated simulated work (see DESIGN.md);
// compare shapes against the paper, not absolute values.
//
// -parallelism sets the intra-query degree of parallelism for every
// experiment. Simulated timings are identical at any value (the morsel
// executor charges the same work regardless of worker count), so the paper
// tables are reproducible with parallelism on; only wall clock changes. The
// "parallel" experiment measures that wall-clock speedup explicitly, over
// the default storage chunk size or, with -chunks, a chunk size × worker
// count grid; every cell's results and simulated cost are cross-checked
// against the first, and parallel_speedup.csv is written under -csv.
//
// "all" runs the paper's experiments, whose output is deterministic. The
// parallel, drift and reopt experiments run only when named: they report
// host-dependent wall clock or replay the stream several times.
//
// -trace writes every statement's flight record, one JSON line each, to a
// file, or to stderr with "-": its phase wall times (parse →
// jits.sample/jits.prepare → optimize → execute → feedback), the JITS
// decisions with their s1/s2 scores and sample laps, the plan with
// per-operator actuals and the feedback observed — the record
// /debug/queries serves. It is off by default and costs a check per
// statement when off.
//
// -serve starts the multi-session SQL service (internal/server) on the
// given address over a freshly loaded workload dataset and blocks until
// SIGINT/SIGTERM, then drains gracefully: in-flight statements get up to
// -drain (default 30s) to finish before the hard cancel. -plan-cache sizes
// the engine's compiled-plan cache (0 off, -1 default, n entries).
// -net-faults arms wire-level fault injection on every accepted connection
// using the JITS_FAULTS spec syntax over the conn.* points (e.g.
// "conn.reset:every=200;conn.latency:every=20,latency=2ms") — a chaos
// rehearsal against a live server. -connect opens an interactive
// line-based SQL session against a running server.
//
// The JITS_FAULTS environment variable arms deterministic fault injection
// for experiment runs using the same spec syntax (internal/faultinject);
// e.g. JITS_FAULTS="estimator.misestimate:every=7,factor=16" skews every
// 7th cardinality estimate 16x — a chaos rehearsal for -exp reopt, which
// must still cross-check identical results in every mode.
//
// -debug-addr starts the embedded debug HTTP server (see
// internal/debugserver) on the given address (port 0 picks a free port; the
// bound address is printed as "debug server listening on ..."). It enables
// every experiment engine's flight recorder and serves the engine the
// experiment is running, so /metrics, /debug/archive and /debug/queries have
// live content while the experiments run; under -serve, /metrics adds the
// SQL service's series. -debug-linger keeps the process (and the server) alive
// for that long after the experiments finish, for interactive poking.
//
// A flag that acts only in one mode (-debug-linger, -plan-cache,
// -net-faults, -drain, -chunks) is an error without that mode, not a
// silent no-op.
package main

import (
	"bufio"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/debugserver"
	"repro/internal/experiments"
	"repro/internal/faultinject"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: all, "+expNames(", ", false)+" ("+expNames(", ", true)+" are excluded from all)")
		scale    = flag.Float64("scale", 0.01, "dataset scale factor (1.0 = paper sizes)")
		queries  = flag.Int("queries", 840, "workload query count")
		seed     = flag.Int64("seed", 42, "random seed")
		smax     = flag.Float64("smax", 0.5, "JITS sensitivity threshold")
		sample   = flag.Int("sample", core.DefaultSampleSize, "JITS sample size")
		perGroup = flag.Bool("pergroup", false, "charge sampling per candidate group (the paper prototype's cost profile)")
		csvDirF  = flag.String("csv", "", "directory to also write figure data as CSV (created if missing)")
		par      = flag.Int("parallelism", 1, "intra-query degree of parallelism (1 = serial: every operator runs inline)")
		traceF   = flag.String("trace", "", `write every statement's flight record, one JSON line each, to this file ("-" for stderr)`)
		debugF   = flag.String("debug-addr", "", "start the embedded debug HTTP server on this address (port 0 picks a free port)")
		lingerF  = flag.Duration("debug-linger", 0, "keep the process alive this long after the experiments finish (requires -debug-addr)")
		serveF   = flag.String("serve", "", "serve SQL sessions on this address (port 0 picks a free port) instead of running experiments")
		connectF = flag.String("connect", "", "connect an interactive SQL session to a running server at this address")
		planCF   = flag.Int("plan-cache", -1, "compiled-plan cache size for -serve (0 disables, -1 selects the default size)")
		faultsF  = flag.String("net-faults", "", `arm wire fault injection for -serve, e.g. "conn.reset:every=200;conn.latency:every=20,latency=2ms"`)
		drainF   = flag.Duration("drain", 30*time.Second, "graceful-drain budget for -serve on SIGINT/SIGTERM")
	)
	flag.Parse()
	selected, err := selectExperiments(*exp)
	if err == nil {
		err = checkModeFlags(map[string]bool{
			"-debug-addr":   *debugF != "",
			"-serve":        *serveF != "",
			"-exp parallel": slices.ContainsFunc(selected, func(x experiment) bool { return x.name == "parallel" }),
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jitsbench:", err)
		os.Exit(2)
	}
	// JITS_FAULTS arms process-wide fault injection (see the package doc);
	// -serve has its own -net-faults flag for the conn.* points.
	if spec := os.Getenv("JITS_FAULTS"); spec != "" {
		if err := faultinject.ArmFromSpec(spec); err != nil {
			fmt.Fprintln(os.Stderr, "jitsbench:", err)
			os.Exit(1)
		}
		fmt.Printf("jitsbench: faults armed: %s\n", spec)
	}
	csvDir = *csvDirF
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "jitsbench:", err)
			os.Exit(1)
		}
	}

	var traceW io.Writer
	if *traceF != "" {
		if *traceF == "-" {
			traceW = os.Stderr
		} else {
			f, err := os.Create(*traceF)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jitsbench: trace:", err)
				os.Exit(1)
			}
			bw := bufio.NewWriter(f)
			traceW = bw
			defer func() {
				_ = bw.Flush()
				_ = f.Close()
			}()
		}
	}
	opts := experiments.Options{
		Scale: *scale, Queries: *queries, Seed: *seed, SMax: *smax, SampleSize: *sample,
		PerGroupSampling: *perGroup, Parallelism: *par, Trace: traceW,
	}

	if *debugF != "" {
		// The debug server needs flight-recorder content to expose; each
		// experiment attaches its current engine as it is constructed.
		srv := debugserver.New(nil)
		addr, err := srv.Start(*debugF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jitsbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		opts.FlightRecorder = -1 // default ring capacity
		opts.OnEngine = srv.SetEngine
		dbgSrv = srv
		fmt.Printf("jitsbench: debug server listening on %s\n", addr)
		if *lingerF > 0 {
			defer func() {
				fmt.Printf("jitsbench: lingering %s for debug inspection (ctrl-c to stop)\n", *lingerF)
				time.Sleep(*lingerF)
			}()
		}
	}
	if *connectF != "" {
		if err := connectMode(*connectF); err != nil {
			fmt.Fprintln(os.Stderr, "jitsbench:", err)
			os.Exit(1)
		}
		return
	}
	if *serveF != "" {
		if err := serveMode(opts, *serveF, *planCF, *faultsF, *drainF); err != nil {
			fmt.Fprintln(os.Stderr, "jitsbench:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("jitsbench: scale=%g queries=%d seed=%d smax=%g sample=%d pergroup=%v parallelism=%d\n\n",
		opts.Scale, opts.Queries, opts.Seed, opts.SMax, opts.SampleSize, opts.PerGroupSampling, opts.Parallelism)

	for _, x := range selected {
		fmt.Printf("%s\n%s\n", x.title, strings.Repeat("=", len(x.title)))
		start := time.Now()
		if err := x.fn(opts); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", x.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %s]\n\n", x.name, time.Since(start).Round(time.Millisecond))
	}
}

// modeFlags are the flags that act only in one mode, each with that mode.
var modeFlags = []struct{ flag, mode string }{
	{"debug-linger", "-debug-addr"},
	{"plan-cache", "-serve"},
	{"net-faults", "-serve"},
	{"drain", "-serve"},
	{"chunks", "-exp parallel"},
}

// checkModeFlags rejects a flag set on the command line whose mode is not
// in effect; active says which modes are.
func checkModeFlags(active map[string]bool) error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		for _, m := range modeFlags {
			if err == nil && f.Name == m.flag && !active[m.mode] {
				err = fmt.Errorf("-%s has no effect without %s", m.flag, m.mode)
			}
		}
	})
	return err
}

func drift(opts experiments.Options) error {
	rep, err := experiments.Drift(opts)
	if err != nil {
		return err
	}
	fmt.Printf("shift applied after warm phase: %s\n\n", rep.ShiftSQL)
	fmt.Printf("%-8s %-28s %-13s %-8s %6s %12s %10s %10s\n",
		"phase", "stat", "table", "state", "obs", "ewma_qerror", "cusum", "churn")
	var csvRows [][]string
	for _, r := range rep.Rows {
		fmt.Printf("%-8s %-28s %-13s %-8s %6d %12.3f %10.3f %10d\n",
			r.Phase, r.Stat, r.Table, r.State, r.Observations, r.EWMAQError, r.CUSUM, r.ChurnRows)
		csvRows = append(csvRows, []string{
			r.Phase, r.Stat, r.Table, r.State,
			strconv.FormatUint(r.Observations, 10),
			f64(r.EWMAQError), f64(r.CUSUM),
			strconv.FormatInt(r.ChurnRows, 10),
		})
	}
	writeCSV("drift.csv",
		[]string{"phase", "stat", "table", "state", "observations", "ewma_qerror", "cusum", "churn_rows"},
		csvRows)
	fmt.Printf("\ndrifted tables: %v (shifted: %s)\n", rep.DriftedTables, rep.ShiftedTable)
	fmt.Println("expected shape: the warm phase ends with nothing drifted; after the city")
	fmt.Println("boom only the shifted table's statistics cross into drifted — churn marks")
	fmt.Println("them aging, stale-estimate error factors push the CUSUM past threshold")
	return nil
}

func reopt(opts experiments.Options) error {
	rep, err := experiments.Reopt(opts)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %8s %12s %12s %12s %14s %14s %8s\n",
		"mode", "queries", "compile (s)", "exec (s)", "total (s)", "mean worst q", "max worst q", "reopts")
	var csvRows [][]string
	for _, m := range rep.Modes {
		fmt.Printf("%-8s %8d %12.4f %12.4f %12.4f %14.3f %14.1f %8d\n",
			m.Mode, m.Queries, m.CompileSeconds, m.ExecSeconds, m.TotalSeconds,
			m.MeanWorstQError, m.MaxWorstQError, m.Reopts)
		csvRows = append(csvRows, []string{
			m.Mode, strconv.Itoa(m.Queries),
			f64(m.CompileSeconds), f64(m.ExecSeconds), f64(m.TotalSeconds),
			f64(m.MeanWorstQError), f64(m.MaxWorstQError), strconv.Itoa(m.Reopts),
		})
	}
	writeCSV("reopt.csv",
		[]string{"mode", "queries", "compile_s", "exec_s", "total_s", "mean_worst_qerror", "max_worst_qerror", "reopts"},
		csvRows)
	fmt.Println("\nexpected shape: reopt finishes the stream with less simulated work and a")
	fmt.Println("lower terminal q-error than both static baselines — it repairs the catalog")
	fmt.Println("plans mid-flight instead of paying JITS's compile-time sampling")
	return nil
}

// csvDir, when non-empty, receives one CSV per experiment.
var csvDir string

func writeCSV(name string, headerRow []string, rows [][]string) {
	if csvDir == "" {
		return
	}
	path := filepath.Join(csvDir, name)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jitsbench: csv:", err)
		return
	}
	w := csv.NewWriter(f)
	_ = w.Write(headerRow)
	_ = w.WriteAll(rows)
	w.Flush()
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "jitsbench: csv:", err)
		return
	}
	fmt.Printf("(wrote %s)\n", path)
}

func f64(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

func table2(opts experiments.Options) error {
	rows, err := experiments.Table2(opts)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %12s %8s\n", "Table", "Rows", "Paper rows", "Ratio")
	for _, r := range rows {
		fmt.Printf("%-14s %12d %12d %8.4f\n", strings.ToUpper(r.Table), r.Rows, r.PaperRows,
			float64(r.Rows)/float64(r.PaperRows))
	}
	return nil
}

func table3(opts experiments.Options) error {
	rows, err := experiments.Table3(opts)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-28s %12s %12s %12s\n", "Case", "Scenario", "Compilation", "Execution", "Total")
	for _, r := range rows {
		fmt.Printf("%-6s %-28s %12.3f %12.3f %12.3f\n", r.Case, r.Description, r.Compile, r.Exec, r.Total)
	}
	var csvRows [][]string
	for _, r := range rows {
		csvRows = append(csvRows, []string{r.Case, r.Description, f64(r.Compile), f64(r.Exec), f64(r.Total)})
	}
	writeCSV("table3.csv", []string{"case", "scenario", "compile_s", "exec_s", "total_s"}, csvRows)
	if len(rows) == 4 {
		gainExec := 1 - rows[1].Exec/rows[0].Exec
		gainTotal := 1 - rows[1].Total/rows[0].Total
		fmt.Printf("\nno-stats scenario: JITS cuts execution %.0f%%, total %.0f%% (paper: ≈27%% / ≈18%%)\n",
			gainExec*100, gainTotal*100)
	}
	return nil
}

func fig3(opts experiments.Options) error {
	res, err := experiments.Figure3(opts)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %10s %10s %10s %10s %10s %10s\n", "Setting", "Min", "Q1", "Median", "Q3", "Max", "Mean")
	for _, s := range experiments.AllSettings() {
		b := res.Boxes[s]
		fmt.Printf("%-16s %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f\n",
			s, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
	}
	var boxRows [][]string
	for _, s := range experiments.AllSettings() {
		b := res.Boxes[s]
		boxRows = append(boxRows, []string{s.String(), f64(b.Min), f64(b.Q1), f64(b.Median), f64(b.Q3), f64(b.Max), f64(b.Mean)})
	}
	writeCSV("fig3_box.csv", []string{"setting", "min", "q1", "median", "q3", "max", "mean"}, boxRows)
	var qRows [][]string
	for _, s := range experiments.AllSettings() {
		for _, t := range res.Timings[s] {
			qRows = append(qRows, []string{s.String(), strconv.Itoa(t.Index), f64(t.Compile), f64(t.Exec), f64(t.Total), strconv.Itoa(t.Degraded)})
		}
	}
	writeCSV("fig3_timings.csv", []string{"setting", "query", "compile_s", "exec_s", "total_s", "degraded_tables"}, qRows)
	fmt.Println("\nexpected shape: JITS distribution sits below all three baselines (paper Fig. 3)")
	return nil
}

func printScatter(pts []experiments.ScatterPoint, sum experiments.ScatterSummary, baseline, csvName string) {
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{strconv.Itoa(p.Index), f64(p.X), f64(p.Y)})
	}
	writeCSV(csvName, []string{"query", baseline + "_s", "jits_s"}, rows)
	fmt.Printf("%8s %14s %14s\n", "query", baseline, "JITS")
	step := len(pts) / 40
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(pts); i += step {
		fmt.Printf("%8d %14.4f %14.4f\n", pts[i].Index, pts[i].X, pts[i].Y)
	}
	fmt.Printf("\nimproved=%d degraded=%d ties=%d meanRatio=%.3f (ratio < 1 means JITS faster)\n",
		sum.Improved, sum.Degraded, len(pts)-sum.Improved-sum.Degraded, sum.MeanRatio)
}

func fig4(opts experiments.Options) error {
	pts, sum, err := experiments.Figure4(opts)
	if err != nil {
		return err
	}
	printScatter(pts, sum, "workload-stats", "fig4_scatter.csv")
	fmt.Println("expected shape: early queries pay JITS overhead; as updates stale the")
	fmt.Println("pre-collected statistics, the majority of later queries improve (paper Fig. 4)")
	return nil
}

func fig5(opts experiments.Options) error {
	pts, sum, err := experiments.Figure5(opts)
	if err != nil {
		return err
	}
	printScatter(pts, sum, "general-stats", "fig5_scatter.csv")
	fmt.Println("expected shape: almost all queries improve, few in the degradation region (paper Fig. 5)")
	return nil
}

func fig6(opts experiments.Options) error {
	pts, err := experiments.Figure6(opts, experiments.PaperSMaxValues())
	if err != nil {
		return err
	}
	fmt.Printf("%8s %14s %14s %14s\n", "s_max", "avg compile", "avg exec", "avg total")
	for _, p := range pts {
		fmt.Printf("%8.2f %14.4f %14.4f %14.4f\n", p.SMax, p.AvgCompile, p.AvgExec, p.AvgTotal)
	}
	var sweepRows [][]string
	for _, p := range pts {
		sweepRows = append(sweepRows, []string{f64(p.SMax), f64(p.AvgCompile), f64(p.AvgExec), f64(p.AvgTotal)})
	}
	writeCSV("fig6_sweep.csv", []string{"smax", "avg_compile_s", "avg_exec_s", "avg_total_s"}, sweepRows)
	fmt.Println("\nexpected shape: compilation falls as s_max rises; execution rises once")
	fmt.Println("s_max passes ≈0.7; s_max=0 is worse than s_max=1 on compilation (paper Fig. 6)")
	return nil
}

func oltp(opts experiments.Options) error {
	o := opts
	if o.Queries > 200 {
		o.Queries = 200
	}
	rows, err := experiments.OLTP(o)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %14s %14s %14s %10s\n", "mode", "avg compile", "avg exec", "avg total", "degraded")
	for _, r := range rows {
		fmt.Printf("%-22s %14.5f %14.5f %14.5f %10d\n", r.Mode, r.AvgCompile, r.AvgExec, r.AvgTotal, r.DegradedTables)
	}
	fmt.Println("\nexpected shape: forced collection loses on simple queries; the sensitivity")
	fmt.Println("analysis contains the overhead (paper §3.5)")
	return nil
}

func parallelSpeedup(opts experiments.Options, chunksSpec string) error {
	fmt.Printf("host: %d CPU(s), GOMAXPROCS=%d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if runtime.NumCPU() == 1 {
		fmt.Println("note: single-CPU host — workers time-slice one core, so expect ~1.0x;")
		fmt.Println("the result/cost-invariance checks below still run in every cell")
	}
	workers := []int{1, 2, 4}
	if opts.Parallelism > 1 && !slices.Contains(workers, opts.Parallelism) {
		workers = append(workers, opts.Parallelism)
	}
	var chunks []int // nil = the default chunk size only
	if chunksSpec != "" {
		for _, f := range strings.Split(chunksSpec, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad -chunks entry %q", f)
			}
			chunks = append(chunks, n)
		}
	}
	rows, err := experiments.ParallelSpeedup(opts, chunks, workers)
	if err != nil {
		return err
	}
	fmt.Printf("%8s %8s %14s %10s %16s %8s\n", "chunk", "workers", "wall (s)", "speedup", "simulated (s)", "queries")
	var csvRows [][]string
	for _, r := range rows {
		chunk := "default"
		if r.ChunkSize > 0 {
			chunk = strconv.Itoa(r.ChunkSize)
		}
		fmt.Printf("%8s %8d %14.3f %9.2fx %16.4f %8d\n", chunk, r.Workers, r.WallSeconds, r.Speedup, r.SimSeconds, r.Queries)
		csvRows = append(csvRows, []string{strconv.Itoa(r.ChunkSize), strconv.Itoa(r.Workers), f64(r.WallSeconds), f64(r.Speedup), f64(r.SimSeconds), strconv.Itoa(r.Queries)})
	}
	writeCSV("parallel_speedup.csv", []string{"chunk_size", "workers", "wall_s", "speedup", "simulated_s", "queries"}, csvRows)
	fmt.Println("\nevery cell replays the identical query stream with identical results and")
	fmt.Println("identical simulated cost; with multiple cores available, wall clock")
	fmt.Println("shrinks as workers are added, chunk size trades locality against")
	fmt.Println("selection-vector overhead, and nothing else changes")
	return nil
}
