package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
)

// runOpts are one measuring process's inputs.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizing // zero fields keep the workload's own sizing
	rounds   int    // >0 fixes the number of rounds (the smoke test runs one)
	spans    string // traced run: write the last round's spans here
}

// A run makes at least this many rounds however short --seconds is: the
// reported values are medians over rounds. A traced repetition is two
// rounds and the probes, so fewer are required.
const (
	minRounds       = 3
	minTracedRounds = 2
)

// reading is one reported metric.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one measuring process prints: the last line of its output
// is the contract object (correct, attempted, failed, metrics); the line
// before it carries the detail the `run` and `trace` subcommands collect.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
	detail    detail
}

// detail is everything about a run that is not a metric value.
type detail struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Trace      bool        `json:"trace"`
	Env        environment `json:"env"`
	Scale      float64     `json:"scale"`
	Rounds     int         `json:"rounds"`
	Warm       int         `json:"warmup_statements"`
	Timed      int         `json:"timed_statements_per_round"`
	Selects    int         `json:"timed_selects_per_round"`
	DML        int         `json:"timed_dml_per_round"`
	Sessions   int         `json:"sessions"`
	Digest     string      `json:"digest"`
	Committed  string      `json:"committed_digest,omitempty"`
	WallS      float64     `json:"wall_s"`
	FirstError string      `json:"first_error,omitempty"`
	// PerRound holds every round's values; the metrics are their medians.
	PerRound map[string][]float64 `json:"per_round"`
}

// environment is recorded in every document.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

func currentEnvironment() environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	commit := "unknown" // a driver checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		GoVersion:  runtime.Version(),
		GitCommit:  commit,
	}
}

// prepared is a workload made ready to measure: lists generated from the
// seed and stamped with the oracle's digests.
type prepared struct {
	spec        *spec
	size        sizing
	warm, timed []item
	selects     int
	listed      int // distinct statements the oracle stamped
	digest      string
	committed   string
}

func prepare(o runOpts) (*prepared, error) {
	s, err := lookupSpec(o.workload)
	if err != nil {
		return nil, err
	}
	p := &prepared{spec: s, size: s.size}
	if o.size.scale > 0 {
		p.size.scale = o.size.scale
	}
	if o.size.n > 0 {
		p.size.n = o.size.n
		if p.size.warm > o.size.n {
			p.size.warm = o.size.n
		}
	}
	twin, ds, err := newTwin(p.size)
	if err != nil {
		return nil, err
	}
	defer twin.Close()
	if p.warm, p.timed, err = s.gen(ds, p.size, o.seed); err != nil {
		return nil, err
	}
	if err := expect(twin, p.warm, p.timed); err != nil {
		return nil, err
	}
	var wants []uint64
	for _, list := range [][]item{p.warm, p.timed} {
		for _, it := range list {
			wants = append(wants, it.want)
		}
	}
	for _, it := range p.timed {
		if it.query {
			p.selects++
		}
	}
	p.listed = len(wants)
	p.digest = fmt.Sprintf("%016x", listDigest(wants))
	if s.warmWithList {
		p.warm = p.timed
	}
	if p.size == s.size {
		p.committed = committedDigest(s.name, o.seed)
	}
	return p, nil
}

// digestOK reports whether the oracle's digests agree with the committed
// ones (seeds without a committed digest have nothing to disagree with).
func (p *prepared) digestOK() bool { return p.committed == "" || p.committed == p.digest }

func (p *prepared) newDetail(o runOpts) detail {
	return detail{
		Workload: p.spec.name, Seed: o.seed, Trace: o.trace, Env: currentEnvironment(),
		Scale: p.size.scale, Warm: len(p.warm), Timed: len(p.timed), Selects: p.selects,
		DML: len(p.timed) - p.selects, Sessions: p.spec.sessions,
		Digest: p.digest, Committed: p.committed, PerRound: make(map[string][]float64),
	}
}

// keepGoing decides whether another round (or traced repetition) fits.
func keepGoing(o runOpts, done int, start time.Time) bool {
	if o.rounds > 0 {
		return done < o.rounds
	}
	if done < minTracedRounds || done < minRounds && !o.trace {
		return true
	}
	elapsed := time.Since(start).Seconds()
	return elapsed+elapsed/float64(done) <= o.seconds
}

// measure is one measuring process: prepare, then rounds until --seconds is
// used up, then medians over the rounds.
func measure(o runOpts) (*result, error) {
	began := time.Now()
	p, err := prepare(o)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: make(map[string]reading), detail: p.newDetail(o)}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		err = p.tracedRounds(o, res)
	} else {
		err = p.plainRounds(o, res)
	}
	if err != nil {
		return nil, err
	}
	for _, def := range defs {
		vals, ok := res.detail.PerRound[def.name]
		if !ok {
			return nil, fmt.Errorf("internal: metric %s was not measured", def.name)
		}
		v := median(vals)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", def.name)
		}
		res.Metrics[def.name] = reading{Value: v, Unit: def.unit}
	}
	if !p.digestOK() {
		res.Failed = res.Attempted
		res.detail.FirstError = fmt.Sprintf("oracle digest %s differs from the committed %s", p.digest, p.committed)
	}
	res.Correct = res.Failed == 0
	res.detail.WallS = time.Since(began).Seconds()
	return res, nil
}

func (res *result) add(name string, v float64) {
	res.detail.PerRound[name] = append(res.detail.PerRound[name], v)
}

func (res *result) count(t *tally) {
	res.Attempted += t.n
	res.Failed += t.failed
	if res.detail.FirstError == "" {
		res.detail.FirstError = t.firstEr
	}
}

func (p *prepared) plainRounds(o runOpts, res *result) error {
	start := time.Now()
	for done := 0; keepGoing(o, done, start); done++ {
		r, e, err := p.spec.plainRound(p.size, p.spec.sessions, p.warm, p.timed)
		if err != nil {
			return err
		}
		e.Close()
		res.count(&r.tally)
		n := float64(r.n)
		res.add("setup_s", r.setupS)
		res.add("stmts_per_s", n/r.use.wallS)
		res.add("query_geomean_ms", geomean(r.queryMs))
		res.add("cpu_ms_per_stmt", r.use.cpuS*1e3/n)
		res.add("alloc_kb_per_stmt", r.use.allocBytes/1024/n)
		res.add("mallocs_per_stmt", r.use.mallocs/n)
		res.add("rss_mean_mb", r.rssMeanMiB)
		res.add("sim_total_s", r.sim)
		res.detail.Rounds++
	}
	return nil
}

// stagedRound sets the workload up like plainRound but replays it through
// the staged driver on an engine whose own plan cache is off.
func (p *prepared) stagedRound() (*round, *engine.Engine, *staged, error) {
	runtime.GC()
	e, _, err := p.spec.newEngine(p.size, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	d := newStaged(e, p.spec.planCache, len(p.timed))
	r := &round{}
	var warmTally tally
	replay(p.warm, d.exec, &warmTally)
	d.reset()
	w := openWindow()
	replay(p.timed, d.exec, &r.tally)
	r.use = w.close()
	r.failed += warmTally.failed
	if r.firstEr == "" {
		r.firstEr = warmTally.firstEr
	}
	return r, e, d, nil
}

// tracedRounds alternates an untraced embedded round with a staged, traced
// one on the same list, then probes both engines.
func (p *prepared) tracedRounds(o runOpts, res *result) error {
	start := time.Now()
	for done := 0; keepGoing(o, done, start); done++ {
		m := make(map[string]float64)
		plain, pe, err := p.spec.plainRound(p.size, 0, p.warm, p.timed)
		if err != nil {
			return err
		}
		if err := servedProbe(pe, p.timed, m); err != nil {
			return err
		}
		pe.Close()
		traced, te, d, err := p.stagedRound()
		if err != nil {
			return err
		}
		// The driver runs this on every change, the bench module's own tests
		// only when someone does (they are outside the root module's
		// `go test ./...`): so a staged replay that leaves the engine's
		// simulated clock fails the run here as well as in
		// TestStagedMatchesEngine.
		if drift := simDrift(plain, traced); drift > 0.001 {
			traced.failed++
			if traced.firstEr == "" {
				traced.firstEr = fmt.Sprintf("staged driver drifted %.4f%% from Engine.Exec in simulated seconds", drift*100)
			}
		}
		layerMetrics(p, plain, traced, te, d, m)
		if err := stagedProbes(te, d, m); err != nil {
			return err
		}
		te.Close()
		if o.spans != "" {
			if err := d.tr.dump(o.spans); err != nil {
				return err
			}
		}
		res.count(&plain.tally)
		res.count(&traced.tally)
		for name, v := range m {
			res.add(name, v)
		}
		res.detail.Rounds++
	}
	return nil
}

func simDrift(plain, traced *round) float64 {
	return ratio(math.Abs(traced.sim-plain.sim), plain.sim)
}

// layerMetrics reduces one untraced/traced pair of rounds to the per-layer
// metrics that come from spans and counts (probes add the rest).
func layerMetrics(p *prepared, plain, traced *round, te *engine.Engine, d *staged, m map[string]float64) {
	tot := d.tr.totals(func(stmt int32) bool { return p.timed[stmt].query })
	perCallUs := func(k spanKind) float64 { return ratio(float64(tot.durNs[k]), float64(tot.count[k])) / 1e3 }
	stmtNs := float64(tot.durNs[spStmt])
	share := func(kinds ...spanKind) float64 {
		var self int64
		for _, k := range kinds {
			self += tot.selfN[k]
		}
		return ratio(float64(self), stmtNs)
	}
	selects := float64(d.selects)

	m["sqlparser.parse_us"] = perCallUs(spParse)
	m["sqlparser.normalize_us"] = perCallUs(spNormalize)
	m["sqlparser.sql_bytes"] = ratio(float64(d.sqlBytes), float64(traced.n))
	m["sqlparser.wall_share"] = share(spParse, spNormalize)
	m["qgm.build_us"] = perCallUs(spBuild)
	m["qgm.wall_share"] = share(spBuild)

	cs := d.cacheStats()
	m["plancache.get_us"] = perCallUs(spCacheGet)
	m["plancache.put_us"] = perCallUs(spCachePut)
	m["plancache.hit_rate"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	m["plancache.evictions"] = float64(cs.Evictions)
	m["plancache.invalidations"] = float64(cs.Invalidations)
	m["plancache.wall_share"] = share(spCacheGet, spCachePut)

	arch := te.JITS().Archive()
	compileNs := tot.durNs[spParse] + tot.durNs[spBuild] + tot.durNs[spPrepare] + tot.durNs[spOptimize]
	m["core.prepare_ms"] = perCallUs(spPrepare) / 1e3
	m["core.feedback_us"] = perCallUs(spFeedback)
	m["core.collect_ratio"] = ratio(float64(d.sampledSelects), selects)
	m["core.tables_sampled"] = float64(d.tablesSampled)
	m["core.sample_rows"] = float64(d.sampleRows)
	m["core.groups_evaluated"] = float64(d.groupsEvaluated)
	m["core.groups_materialized"] = float64(d.groupsMaterialized)
	m["core.archive_hit_rate"] = ratio(float64(d.archiveHits), float64(d.archiveHits+d.archiveMisses))
	m["core.archive_buckets"] = float64(arch.Buckets())
	m["core.archive_histograms"] = float64(arch.Histograms())
	m["core.compile_wall_share"] = ratio(float64(compileNs), float64(tot.selectRootNs))
	m["core.compile_sim_share"] = ratio(d.compileSim, d.totalSim)
	m["core.wall_share"] = share(spPrepare, spFeedback)

	m["optimizer.optimize_us"] = perCallUs(spOptimize)
	m["optimizer.compile_units"] = d.compileUnits
	m["optimizer.scan_qerror_p50"] = median(d.qerrors)
	m["optimizer.scan_qerror_p95"] = quantile(d.qerrors, 0.95)
	m["optimizer.wall_share"] = share(spOptimize)

	m["executor.execute_ms"] = perCallUs(spExecute) / 1e3
	m["executor.exec_units"] = d.execUnits
	m["executor.ns_per_unit"] = ratio(float64(tot.durNs[spExecute]), d.execUnits)
	m["executor.rows_out"] = float64(d.rowsOut)
	m["executor.alloc_kb"] = 0 // stagedProbes overwrites it when plans were captured
	m["executor.wall_share"] = share(spExecute)

	m["engine.dml_insert_ms"] = perCallUs(spInsert) / 1e3
	m["engine.dml_update_ms"] = perCallUs(spUpdate) / 1e3
	m["engine.dml_delete_ms"] = perCallUs(spDelete) / 1e3
	m["engine.dml_p50_ms"] = median(plain.dmlMs)
	m["engine.dml_p95_ms"] = quantile(plain.dmlMs, 0.95)
	m["engine.dml_wall_share"] = share(spInsert, spUpdate, spDelete)
	// What Exec spends outside the calls the staged driver makes itself:
	// admission, reservation, plan-text rendering, metrics, result assembly.
	m["engine.glue_us"] = mean(plain.queryMs)*1e3 - ratio(float64(tot.selectChildNs), selects)/1e3
	m["engine.hit_us"] = mean(plain.hitUs)
	m["engine.miss_us"] = mean(plain.missUs)
	m["engine.query_p50_ms"] = median(plain.queryMs)
	m["engine.query_p95_ms"] = quantile(plain.queryMs, 0.95)
	m["engine.query_p99_ms"] = quantile(plain.queryMs, 0.99)
	m["engine.error_rate"] = ratio(float64(plain.failed+traced.failed), float64(plain.n+traced.n))

	m["index.rebuilds"] = indexRebuilds(te)

	m["host.calib_ms"] = calibrate() * 1e3

	m["runtime.gc_cycles"] = plain.use.gcCycles
	m["runtime.gc_pause_ms"] = plain.use.gcPauseMs
	m["runtime.gc_cpu_frac"] = plain.use.gcCPUFrac
	m["runtime.rss_peak_mb"] = plain.rssPeakMiB

	m["trace.overhead_frac"] = ratio(traced.use.wallS-plain.use.wallS, plain.use.wallS)
	m["trace.sim_drift_frac"] = simDrift(plain, traced)
	m["trace.attributed_frac"] = ratio(float64(tot.selectChildNs), float64(tot.selectRootNs))
	m["trace.unattributed_share"] = share(spStmt)
}
