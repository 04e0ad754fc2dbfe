// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) against the Go engine: Table 2 (dataset sizes), Table 3
// (single-query compilation/execution/total under four scenarios), Figure 3
// (workload elapsed-time box plot across four settings), Figures 4 and 5
// (per-query scatter of JITS against the workload-statistics and
// general-statistics baselines) and Figure 6 (the s_max sensitivity-analysis
// threshold sweep).
//
// Reported "seconds" are the engine's calibrated work units, not wall
// clock; see the costmodel package and DESIGN.md for why the relative
// shapes — who wins, by what factor, where the crossovers fall — are the
// meaningful reproduction target.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Setting enumerates the four workload settings of §4.2.
type Setting int

// The four settings of Figure 3, in the paper's order, plus the reactive
// (LEO-style) extension baseline from the paper's related-work discussion.
const (
	SettingNoStats Setting = iota
	SettingGeneralStats
	SettingWorkloadStats
	SettingJITS
	SettingReactive // general stats + LEO-style corrections (extension)
)

// String names the setting as used in tables and output.
func (s Setting) String() string {
	switch s {
	case SettingNoStats:
		return "No Stats"
	case SettingGeneralStats:
		return "General Stats"
	case SettingWorkloadStats:
		return "Workload Stats"
	case SettingJITS:
		return "JITS"
	case SettingReactive:
		return "Reactive (LEO)"
	default:
		return fmt.Sprintf("Setting(%d)", int(s))
	}
}

// AllSettings lists the four settings in paper order.
func AllSettings() []Setting {
	return []Setting{SettingNoStats, SettingGeneralStats, SettingWorkloadStats, SettingJITS}
}

// Options parameterize an experiment run.
type Options struct {
	Scale      float64 // dataset scale factor (1.0 = paper sizes)
	Queries    int     // number of SELECTs in the workload
	Seed       int64
	SMax       float64 // JITS sensitivity threshold
	SampleSize int     // JITS sample size
	// PerGroupSampling charges collection per candidate group, emulating
	// the paper's on-the-fly sampling queries (see core.Config).
	PerGroupSampling bool
	// Parallelism is the degree of intra-query parallelism of every engine
	// an experiment constructs, except where the experiment sweeps it. It
	// changes wall-clock time only: the simulated cost-model timings —
	// everything the experiment tables report — are identical at any value.
	Parallelism int
	// Trace, when non-nil, receives every statement's flight record as one
	// JSON line (engine.Config.Trace). All engines an experiment constructs
	// share the writer; each engine writes a record in one Write, so the
	// interleaved stream stays one record a line. jitsbench plumbs its
	// -trace flag here.
	Trace io.Writer
	// FlightRecorder, when non-zero, enables every constructed engine's
	// statement flight recorder with a ring of that many records (negative
	// selects flightrec.DefaultCapacity). jitsbench enables it whenever the
	// debug server is on, so /debug/queries and SHOW QUERIES have content.
	FlightRecorder int
	// OnEngine, when non-nil, observes every engine an experiment
	// constructs, immediately after creation. jitsbench attaches the
	// current engine to the debug server here.
	OnEngine func(*engine.Engine)
}

// newEngine constructs one experiment engine from cfg with the Options'
// cross-cutting knobs applied — every experiment creates its engines through
// here so the degree of parallelism (unless cfg sets its own), the trace
// writer, the flight recorder and the OnEngine hook reach all of them.
func (o Options) newEngine(cfg engine.Config) *engine.Engine {
	if cfg.Parallelism == 0 {
		cfg.Parallelism = o.Parallelism
	}
	cfg.Trace = o.Trace
	cfg.FlightRecorderCapacity = o.FlightRecorder
	e := engine.New(cfg)
	if o.OnEngine != nil {
		o.OnEngine(e)
	}
	return e
}

func (o Options) jitsConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SMax = o.SMax
	cfg.SampleSize = o.SampleSize
	cfg.Seed = o.Seed
	cfg.PerGroupSampling = o.PerGroupSampling
	return cfg
}

// ---- Table 2 -----------------------------------------------------------

// Table2Row is one row of the dataset-size table.
type Table2Row struct {
	Table     string
	Rows      int
	PaperRows int
}

// Table2 generates the dataset and reports the table sizes next to the
// paper's (Table 2); the ratios must match, the absolute counts are scaled.
func Table2(opts Options) ([]Table2Row, error) {
	e := opts.newEngine(engine.Config{})
	d, err := workload.Load(e, workload.Spec{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	paper := map[string]int{
		"car":          workload.PaperCarRows,
		"owner":        workload.PaperOwnerRows,
		"demographics": workload.PaperDemographicsRows,
		"accidents":    workload.PaperAccidentsRows,
	}
	var out []Table2Row
	for _, ts := range d.TableSizes() {
		out = append(out, Table2Row{Table: ts.Table, Rows: ts.Rows, PaperRows: paper[ts.Table]})
	}
	return out, nil
}

// ---- Table 3 -----------------------------------------------------------

// Table3Row is one scenario of the single-query experiment.
type Table3Row struct {
	Case        string
	Description string
	Compile     float64
	Exec        float64
	Total       float64
}

// Table3 runs the paper's §4.1 query in the four scenarios: {no initial
// statistics, full general statistics} × {JITS disabled, JITS enabled}. As
// in the paper, the automatic sensitivity analysis is turned off for this
// experiment (ForceCollect), so JITS always samples.
func Table3(opts Options) ([]Table3Row, error) {
	type scenario struct {
		name, desc   string
		generalStats bool
		jits         bool
	}
	scenarios := []scenario{
		{"1-a", "no stats, JITS disabled", false, false},
		{"1-b", "no stats, JITS enabled", false, true},
		{"2-a", "general stats, JITS disabled", true, false},
		{"2-b", "general stats, JITS enabled", true, true},
	}
	var out []Table3Row
	for _, sc := range scenarios {
		cfg := engine.Config{}
		if sc.jits {
			cfg.JITS = opts.jitsConfig()
			cfg.JITS.ForceCollect = true
		}
		e := opts.newEngine(cfg)
		if _, err := workload.Load(e, workload.Spec{Scale: opts.Scale, Seed: opts.Seed}); err != nil {
			return nil, err
		}
		if sc.generalStats {
			if err := e.RunstatsAll(); err != nil {
				return nil, err
			}
		}
		res, err := e.Exec(workload.PaperQuery())
		if err != nil {
			return nil, err
		}
		out = append(out, Table3Row{
			Case:        sc.name,
			Description: sc.desc,
			Compile:     res.Metrics.CompileSeconds,
			Exec:        res.Metrics.ExecSeconds,
			Total:       res.Metrics.TotalSeconds,
		})
	}
	return out, nil
}

// ---- Workload runs (Figures 3–6) ----------------------------------------

// QueryTiming is one query's simulated timing within a workload run.
type QueryTiming struct {
	Index   int
	Compile float64
	Exec    float64
	Total   float64
	// Degraded counts the JITS tables that fell back to catalog statistics
	// while compiling this query (sampling fault/panic/cancellation); 0 in
	// non-JITS settings and on healthy runs.
	Degraded int
}

// RunWorkload executes the §4.2 workload (queries + interleaved updates)
// in one setting and returns per-query timings. The statement stream is
// deterministic in the options, so every setting sees the identical stream.
func RunWorkload(setting Setting, opts Options) ([]QueryTiming, error) {
	cfg := engine.Config{}
	if setting == SettingJITS {
		cfg.JITS = opts.jitsConfig()
	}
	if setting == SettingReactive {
		cfg.ReactiveCorrections = true
	}
	e := opts.newEngine(cfg)
	d, err := workload.Load(e, workload.Spec{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	stmts := d.Workload(opts.Queries, opts.Seed+1, true)
	switch setting {
	case SettingGeneralStats, SettingWorkloadStats, SettingReactive:
		if err := e.RunstatsAll(); err != nil {
			return nil, err
		}
	}
	if setting == SettingWorkloadStats {
		if err := e.CollectWorkloadStats(workload.QueryTexts(stmts)); err != nil {
			return nil, err
		}
	}

	var out []QueryTiming
	qi := 0
	for _, s := range stmts {
		res, err := e.Exec(s.SQL)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s setting, statement %q: %w", setting, s.SQL, err)
		}
		if s.IsQuery {
			deg := 0
			if res.Prepare != nil {
				deg = res.Prepare.DegradedTables()
			}
			out = append(out, QueryTiming{
				Index:    qi,
				Compile:  res.Metrics.CompileSeconds,
				Exec:     res.Metrics.ExecSeconds,
				Total:    res.Metrics.TotalSeconds,
				Degraded: deg,
			})
			qi++
		}
	}
	return out, nil
}

// BoxStats are the five-number summary (plus mean) a box plot draws.
type BoxStats struct {
	Min, Q1, Median, Q3, Max, Mean float64
}

// Summarize computes box statistics over query total times.
func Summarize(timings []QueryTiming) BoxStats {
	if len(timings) == 0 {
		return BoxStats{}
	}
	vals := make([]float64, len(timings))
	sum := 0.0
	for i, t := range timings {
		vals[i] = t.Total
		sum += t.Total
	}
	sort.Float64s(vals)
	q := func(p float64) float64 {
		pos := p * float64(len(vals)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		return vals[lo]*(1-frac) + vals[hi]*frac
	}
	return BoxStats{
		Min:    vals[0],
		Q1:     q(0.25),
		Median: q(0.5),
		Q3:     q(0.75),
		Max:    vals[len(vals)-1],
		Mean:   sum / float64(len(vals)),
	}
}

// Figure3Result holds the box plot data for all four settings.
type Figure3Result struct {
	Boxes   map[Setting]BoxStats
	Timings map[Setting][]QueryTiming
}

// Figure3 runs the workload under all four settings.
func Figure3(opts Options) (*Figure3Result, error) {
	res := &Figure3Result{
		Boxes:   make(map[Setting]BoxStats),
		Timings: make(map[Setting][]QueryTiming),
	}
	for _, s := range AllSettings() {
		timings, err := RunWorkload(s, opts)
		if err != nil {
			return nil, err
		}
		res.Timings[s] = timings
		res.Boxes[s] = Summarize(timings)
	}
	return res, nil
}

// ScatterPoint pairs one query's elapsed time under a baseline (X) and
// under JITS (Y). Points under the diagonal improved with JITS.
type ScatterPoint struct {
	Index int
	X, Y  float64
}

// ScatterSummary counts the improvement/degradation split of a scatter.
type ScatterSummary struct {
	Improved  int // Y < X
	Degraded  int // Y > X
	MeanRatio float64
}

// Scatter builds Figure 4/5-style data from two timing runs of the same
// statement stream.
func Scatter(baseline, jits []QueryTiming) ([]ScatterPoint, ScatterSummary) {
	n := len(baseline)
	if len(jits) < n {
		n = len(jits)
	}
	points := make([]ScatterPoint, 0, n)
	var sum ScatterSummary
	ratioSum := 0.0
	for i := 0; i < n; i++ {
		p := ScatterPoint{Index: i, X: baseline[i].Total, Y: jits[i].Total}
		points = append(points, p)
		switch {
		case p.Y < p.X:
			sum.Improved++
		case p.Y > p.X:
			sum.Degraded++
		}
		if p.X > 0 {
			ratioSum += p.Y / p.X
		}
	}
	if n > 0 {
		sum.MeanRatio = ratioSum / float64(n)
	}
	return points, sum
}

// Figure4 compares JITS (no prior statistics) against the workload-
// statistics baseline, per query.
func Figure4(opts Options) ([]ScatterPoint, ScatterSummary, error) {
	base, err := RunWorkload(SettingWorkloadStats, opts)
	if err != nil {
		return nil, ScatterSummary{}, err
	}
	jits, err := RunWorkload(SettingJITS, opts)
	if err != nil {
		return nil, ScatterSummary{}, err
	}
	pts, sum := Scatter(base, jits)
	return pts, sum, nil
}

// Figure5 compares JITS against the general-statistics baseline, per query.
func Figure5(opts Options) ([]ScatterPoint, ScatterSummary, error) {
	base, err := RunWorkload(SettingGeneralStats, opts)
	if err != nil {
		return nil, ScatterSummary{}, err
	}
	jits, err := RunWorkload(SettingJITS, opts)
	if err != nil {
		return nil, ScatterSummary{}, err
	}
	pts, sum := Scatter(base, jits)
	return pts, sum, nil
}

// OLTPResult compares JITS modes on a point-lookup workload (§3.5).
type OLTPResult struct {
	Mode       string
	AvgCompile float64
	AvgExec    float64
	AvgTotal   float64
	// DegradedTables totals catalog fallbacks across the stream (0 unless
	// sampling was starved or faulted).
	DegradedTables int
}

// OLTP runs an indexed point-lookup stream under three modes — JITS
// disabled, JITS with the sensitivity analysis, and JITS forced to collect
// on every query — reproducing the paper's §3.5 claim that the architecture
// "can increase the time of query processing if all the queries are very
// simple", and that the sensitivity analysis is what protects against it.
func OLTP(opts Options) ([]OLTPResult, error) {
	modes := []struct {
		name  string
		build func() engine.Config
	}{
		{"JITS disabled", func() engine.Config { return engine.Config{} }},
		{"JITS + sensitivity", func() engine.Config { return engine.Config{JITS: opts.jitsConfig()} }},
		{"JITS forced", func() engine.Config {
			cfg := engine.Config{JITS: opts.jitsConfig()}
			cfg.JITS.ForceCollect = true
			return cfg
		}},
	}
	var out []OLTPResult
	for _, mode := range modes {
		e := opts.newEngine(mode.build())
		d, err := workload.Load(e, workload.Spec{Scale: opts.Scale, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		stmts := d.OLTPQueries(opts.Queries, opts.Seed+1)
		var c, x float64
		deg := 0
		for _, s := range stmts {
			res, err := e.Exec(s.SQL)
			if err != nil {
				return nil, err
			}
			c += res.Metrics.CompileSeconds
			x += res.Metrics.ExecSeconds
			if res.Prepare != nil {
				deg += res.Prepare.DegradedTables()
			}
		}
		n := float64(len(stmts))
		out = append(out, OLTPResult{
			Mode: mode.name, AvgCompile: c / n, AvgExec: x / n, AvgTotal: (c + x) / n,
			DegradedTables: deg,
		})
	}
	return out, nil
}

// SweepPoint is one s_max setting of Figure 6 with per-query averages.
type SweepPoint struct {
	SMax       float64
	AvgCompile float64
	AvgExec    float64
	AvgTotal   float64
}

// PaperSMaxValues are the thresholds of Figure 6.
func PaperSMaxValues() []float64 { return []float64{0, 0.1, 0.5, 0.7, 0.9, 1.0} }

// Figure6 sweeps the sensitivity-analysis threshold over the workload with
// JITS enabled and no initial statistics, reporting average compilation and
// execution time per query.
func Figure6(opts Options, smaxes []float64) ([]SweepPoint, error) {
	if len(smaxes) == 0 {
		smaxes = PaperSMaxValues()
	}
	var out []SweepPoint
	for _, smax := range smaxes {
		o := opts
		o.SMax = smax
		timings, err := RunWorkload(SettingJITS, o)
		if err != nil {
			return nil, err
		}
		var c, x float64
		for _, t := range timings {
			c += t.Compile
			x += t.Exec
		}
		n := float64(len(timings))
		out = append(out, SweepPoint{
			SMax:       smax,
			AvgCompile: c / n,
			AvgExec:    x / n,
			AvgTotal:   (c + x) / n,
		})
	}
	return out, nil
}

// ---- Parallel speedup ----------------------------------------------------

// SpeedupRow reports one cell of the speedup sweep.
type SpeedupRow struct {
	ChunkSize   int // storage chunk size; 0 = storage.DefaultChunkSize
	Workers     int
	WallSeconds float64 // measured wall clock for the whole query stream
	Speedup     float64 // first cell's wall clock / this cell's wall clock
	SimSeconds  float64 // simulated cost-model total — identical in every row
	Queries     int
}

// ParallelSpeedup replays the same JITS-enabled query stream once per
// storage chunk size × worker count and measures wall-clock time. The first
// cell — the first chunk size, serial — is the baseline, so workers must
// start at 1; nil chunks means the default size only, nil workers 1, 2, 4.
// The simulated cost-model seconds and every query's result set must be
// identical across cells — parallelism and chunk geometry are wall-clock
// knobs, not semantics knobs — and the function fails if any cell diverges
// from the baseline.
func ParallelSpeedup(opts Options, chunks, workers []int) ([]SpeedupRow, error) {
	if len(chunks) == 0 {
		chunks = []int{0}
	}
	if len(workers) == 0 {
		workers = []int{1, 2, 4}
	}
	if workers[0] != 1 {
		return nil, fmt.Errorf("experiments: speedup sweep needs dop 1 first as baseline, got %d", workers[0])
	}
	var out []SpeedupRow
	var baseline []string
	for _, chunk := range chunks {
		for _, dop := range workers {
			cfg := engine.Config{Parallelism: dop, JITS: opts.jitsConfig(), StorageChunkSize: chunk}
			e := opts.newEngine(cfg)
			d, err := workload.Load(e, workload.Spec{Scale: opts.Scale, Seed: opts.Seed})
			if err != nil {
				return nil, err
			}
			stmts := d.Queries(opts.Queries, opts.Seed+1)
			fingerprints := make([]string, 0, len(stmts))
			sim := 0.0
			start := time.Now()
			for _, s := range stmts {
				res, err := e.Exec(s.SQL)
				if err != nil {
					return nil, fmt.Errorf("experiments: speedup at chunk %d dop %d, %q: %w", chunk, dop, s.SQL, err)
				}
				sim += res.Metrics.TotalSeconds
				fingerprints = append(fingerprints, fingerprintResult(res))
			}
			row := SpeedupRow{
				ChunkSize: chunk, Workers: dop, WallSeconds: time.Since(start).Seconds(),
				Speedup: 1, SimSeconds: sim, Queries: len(stmts),
			}
			if baseline == nil {
				baseline = fingerprints
			} else {
				for i := range fingerprints {
					if fingerprints[i] != baseline[i] {
						return nil, fmt.Errorf("experiments: chunk %d dop %d diverged from the baseline on query %d (%s)",
							chunk, dop, i, stmts[i].SQL)
					}
				}
				if base := out[0].SimSeconds; math.Abs(sim-base) > 1e-6*(1+base) {
					return nil, fmt.Errorf("experiments: chunk %d dop %d simulated time %.6f != baseline %.6f",
						chunk, dop, sim, base)
				}
				if row.WallSeconds > 0 {
					row.Speedup = out[0].WallSeconds / row.WallSeconds
				}
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// fingerprintResult renders a result to a comparable string; floats are
// rounded so partial-sum association in parallel aggregation cannot flip
// the comparison.
func fingerprintResult(res *engine.Result) string {
	var sb strings.Builder
	for _, c := range res.Columns {
		sb.WriteString(c)
		sb.WriteByte(',')
	}
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for _, d := range row {
			if f, ok := d.AsFloat(); ok {
				fmt.Fprintf(&sb, "%.6g|", f)
				continue
			}
			sb.WriteString(d.String())
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
