package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/executor"
	"repro/internal/flightrec"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
)

// staged performs the engine's SELECT pipeline itself, one public entry
// point at a time, with a span around each call:
//
//	sqlparser.Normalize → plancache.Get → sqlparser.Parse → qgm.Build →
//	JITS.PrepareBudgeted → optimizer.Optimize → executor.Execute →
//	JITS.Feedback → plancache.Put
//
// DML goes through engine.Exec as one span per kind. The engine behind it
// runs with its own plan cache off; the driver keeps the cache, holding its
// own entry type. It mirrors the engine's logical clock — one tick per
// statement, starting from the engine's clock after load — because JITS
// stamps statistics with it and the sensitivity analysis reads their age.
// TestStagedMatchesEngine holds the driver to the engine's digests,
// sampling decisions and simulated seconds.
type staged struct {
	e     *engine.Engine
	cache *plancache.Cache // nil when the workload runs without a plan cache
	clock int64
	tr    *tracer
	ctx   context.Context

	stagedCounts
	qerrors []float64

	// Inputs captured from the workload's own statements for the probes:
	// the first compiled SELECTs and every keepStep-th executed plan.
	queries  []*qgm.Query
	plans    []stagedPlan
	keepNext int
	keepStep int

	cacheBase plancache.Stats // counters at the end of warm-up
}

// stagedCounts are the counts the driver reads at the boundaries it times.
type stagedCounts struct {
	selects, sampledSelects                                        int
	tablesSampled, sampleRows, groupsEvaluated, groupsMaterialized int
	archiveHits, archiveMisses                                     int
	rowsOut, sqlBytes                                              int
	compileUnits, execUnits                                        float64
	compileSim, totalSim                                           float64 // SELECTs only
}

// stagedPlan is the driver's plan-cache entry.
type stagedPlan struct {
	blk  *qgm.Block
	plan optimizer.Node
}

const (
	captureQueries = 64 // compiled SELECTs kept for the sampling/archive/histogram probes
	captureResults = 96 // executed plans kept for the executor probe
	servedSample   = 48 // statements the served probe replays
)

func newStaged(e *engine.Engine, cacheSize, statements int) *staged {
	step := statements / captureResults
	if step < 1 {
		step = 1
	}
	return &staged{
		e:        e,
		cache:    plancache.New(cacheSize),
		clock:    e.Now(),
		tr:       newTracer(statements * 10),
		ctx:      context.Background(),
		keepStep: step,
	}
}

// reset forgets what warm-up recorded; the plan cache and the captured
// queries stay.
func (d *staged) reset() {
	d.tr.spans = d.tr.spans[:0]
	d.stagedCounts = stagedCounts{}
	d.qerrors = nil
	d.plans = nil
	d.keepNext = 0
	d.cacheBase = d.cache.Stats()
}

// cacheStats returns the driver's plan-cache counters since warm-up.
func (d *staged) cacheStats() plancache.Stats {
	s := d.cache.Stats()
	s.Hits -= d.cacheBase.Hits
	s.Misses -= d.cacheBase.Misses
	s.Evictions -= d.cacheBase.Evictions
	s.Invalidations -= d.cacheBase.Invalidations
	return s
}

func (d *staged) exec(i int, it item) (outcome, error) {
	d.sqlBytes += len(it.sql)
	root := d.tr.begin(spStmt, -1, i)
	var out outcome
	var err error
	if it.query {
		out, err = d.selectStmt(root, i, it.sql)
	} else {
		out, err = d.dml(root, i, it.sql)
	}
	d.tr.end(root)
	return out, err
}

func (d *staged) dml(root int32, i int, sql string) (outcome, error) {
	kind := spUpdate
	switch {
	case strings.HasPrefix(sql, "INSERT"):
		kind = spInsert
	case strings.HasPrefix(sql, "DELETE"):
		kind = spDelete
	}
	sp := d.tr.begin(kind, root, i)
	res, err := d.e.Exec(sql)
	d.tr.end(sp)
	d.clock++
	if err != nil {
		return outcome{}, err
	}
	// The engine moved its archive epoch; sweep the driver's cache as the
	// engine sweeps its own.
	d.cache.Invalidate(d.e.ArchiveEpoch())
	return outcome{affected: res.RowsAffected, sim: res.Metrics.TotalSeconds}, nil
}

func (d *staged) selectStmt(root int32, i int, sql string) (outcome, error) {
	d.selects++
	var key string
	var epoch uint64
	if d.cache != nil {
		sp := d.tr.begin(spNormalize, root, i)
		k, nerr := sqlparser.Normalize(sql)
		d.tr.end(sp)
		if nerr == nil {
			epoch = d.e.ArchiveEpoch()
			sp = d.tr.begin(spCacheGet, root, i)
			v, ok := d.cache.Get(k, epoch)
			d.tr.end(sp)
			if ok {
				d.clock++
				ent := v.(*stagedPlan)
				var compile costmodel.Meter
				out, err := d.execute(root, i, ent.blk, ent.plan, &compile)
				out.hit = true
				return out, err
			}
			key = k
		}
	}

	sp := d.tr.begin(spParse, root, i)
	stmt, err := sqlparser.Parse(sql)
	d.tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	d.clock++
	ts := d.clock
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok {
		return outcome{}, fmt.Errorf("staged driver: %T is not a SELECT", stmt)
	}

	sp = d.tr.begin(spBuild, root, i)
	q, err := qgm.Build(sel, d.e)
	d.tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	q.SQL = sql
	blk := q.Blocks[0]
	if len(blk.SemiJoins) > 0 {
		return outcome{}, fmt.Errorf("staged driver: IN-subqueries are not part of any workload")
	}

	mem := d.e.Governor().NewReservation()
	defer mem.Release()
	var compile costmodel.Meter
	sp = d.tr.begin(spPrepare, root, i)
	qstats, prep, err := d.e.JITS().PrepareBudgeted(d.ctx, q, d.e.DB(), ts, &compile, d.e.Weights(), mem)
	d.tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	sampled := false
	for _, tr := range prep.Tables {
		if tr.Collected {
			sampled = true
			d.tablesSampled++
			d.sampleRows += tr.SampleRows
			d.groupsEvaluated += tr.GroupsEvaluated
			d.groupsMaterialized += tr.GroupsMaterialized
		}
	}
	if sampled {
		d.sampledSelects++
	}

	var source optimizer.StatsSource
	if qstats != nil {
		source = qstats
	}
	octx := &optimizer.Context{
		Est:     &optimizer.Estimator{Cat: d.e.Catalog(), QSS: source},
		Indexes: d.e.Indexes(),
		Weights: d.e.Weights(),
		Meter:   &compile,
	}
	sp = d.tr.begin(spOptimize, root, i)
	plan, err := optimizer.Optimize(blk, octx)
	d.tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	if qstats != nil {
		d.archiveHits += qstats.ArchiveHits()
		d.archiveMisses += qstats.ArchiveMisses()
	}
	if len(d.queries) < captureQueries {
		d.queries = append(d.queries, q)
	}

	out, err := d.execute(root, i, blk, plan, &compile)
	if err != nil {
		return outcome{}, err
	}
	if key != "" {
		sp = d.tr.begin(spCachePut, root, i)
		d.cache.Put(key, epoch, &stagedPlan{blk: blk, plan: plan})
		d.tr.end(sp)
	}
	return out, nil
}

// execute is the tail the cold and cached paths share: run the plan, feed
// the actuals back.
func (d *staged) execute(root int32, i int, blk *qgm.Block, plan optimizer.Node, compile *costmodel.Meter) (outcome, error) {
	var execMeter costmodel.Meter
	rt := &executor.Runtime{
		DB: d.e.DB(), Indexes: d.e.Indexes(), Weights: d.e.Weights(),
		Meter: &execMeter, Ctx: d.ctx, Parallelism: 1,
	}
	sp := d.tr.begin(spExecute, root, i)
	res, err := executor.Execute(blk, plan, rt)
	d.tr.end(sp)
	if err != nil {
		return outcome{}, err
	}

	sp = d.tr.begin(spFeedback, root, i)
	var obs []core.Observation
	for _, a := range res.Actuals {
		if a.Trace == nil || a.Conditioned {
			continue
		}
		obs = append(obs, core.Observation{
			Table:     a.Trace.Table,
			ColGrp:    a.Trace.ColGrp,
			StatList:  a.Trace.StatList,
			EstSel:    a.Trace.EstSel,
			ActualSel: a.ActualSelectivity(),
			BaseCard:  int64(a.BaseRows),
		})
	}
	d.e.JITS().Feedback(obs)
	d.tr.end(sp)

	for _, a := range res.Actuals {
		if a.Trace != nil && !a.Conditioned {
			d.qerrors = append(d.qerrors, flightrec.QError(a.Trace.EstSel*a.BaseRows, a.Matched))
		}
	}
	d.rowsOut += len(res.Rows)
	d.compileUnits += compile.Units()
	d.execUnits += execMeter.Units()
	d.compileSim += compile.Seconds()
	d.totalSim += compile.Seconds() + execMeter.Seconds()
	if i >= d.keepNext && len(d.plans) < captureResults {
		d.keepNext = i + d.keepStep
		d.plans = append(d.plans, stagedPlan{blk: blk, plan: plan})
	}
	return outcome{rows: res.Rows, sim: compile.Seconds() + execMeter.Seconds()}, nil
}
