package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/executor"
	"repro/internal/histogram"
	"repro/internal/qgm"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// Probes time the layers the staged driver can only reach nested inside
// another call (sampling and histogram inside core.prepare, storage and
// index inside executor.execute, wire inside the server): the same public
// functions, called in isolation, on inputs captured from the workload's
// own statements. They run after a round, on that round's engine.

const sampleRows = 2000 // core.DefaultConfig().SampleSize

// perCall returns the mean nanoseconds of n calls to fn.
func perCall(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(n)
}

// allocKiB returns the KiB allocated per call over n calls to fn.
func allocKiB(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n)
}

// probedGroup is one captured predicate group with the selectivity a
// 2000-row sample of its table gives it.
type probedGroup struct {
	table string
	preds []qgm.Predicate
	sel   float64
}

// stagedProbes runs every probe that needs the staged driver's captures.
func stagedProbes(e *engine.Engine, d *staged, out map[string]float64) error {
	var meter costmodel.Meter
	w := e.Weights()
	ctx := context.Background()
	sampler := sampling.New(1)

	// sampling.Sampler.Sample: sampleRows rows, each table.
	samples := make(map[string][][]value.Datum)
	var sampleNs []float64
	var sampleAlloc []float64
	for _, name := range e.DB().TableNames() {
		tbl, _ := e.DB().Table(name)
		draw := func() { samples[name], _ = sampler.Sample(ctx, tbl, sampleRows, &meter, w, 1) }
		draw()
		sampleNs = append(sampleNs, perCall(10, draw))
		sampleAlloc = append(sampleAlloc, allocKiB(5, draw))
	}
	out["sampling.sample_us"] = mean(sampleNs) / 1e3
	out["sampling.alloc_kb"] = mean(sampleAlloc)

	// sampling.EvaluateGroups on the captured queries' candidate groups.
	var groups []probedGroup
	var evalNs []float64
	for _, q := range d.queries {
		for _, tc := range core.AnalyzeQuery(q, 0) {
			sample := samples[tc.Table]
			var sels []float64
			evalNs = append(evalNs, perCall(1, func() {
				sels = sampling.EvaluateGroups(sample, tc.Groups, &meter, w)
			}))
			for gi, g := range tc.Groups {
				groups = append(groups, probedGroup{table: tc.Table, preds: g, sel: sels[gi]})
			}
		}
	}
	out["sampling.evalgroups_us"] = mean(evalNs) / 1e3

	// core.Archive.Materialize / GroupSelectivity over those groups, into a
	// fresh archive of the default size.
	domains := make(map[string]map[string]core.ColumnDomain)
	for name, sample := range samples {
		tbl, _ := e.DB().Table(name)
		domains[name] = core.SampleDomains(tbl.Schema(), sample)
	}
	arch := core.NewArchive(0, 0)
	ts := e.Now()
	var matNs, lookNs []float64
	for _, g := range groups {
		ts++
		matNs = append(matNs, perCall(1, func() { arch.Materialize(g.table, g.preds, g.sel, ts, domains[g.table]) }))
	}
	for _, g := range groups {
		lookNs = append(lookNs, perCall(1, func() { arch.GroupSelectivity(g.table, g.preds, ts) }))
	}
	out["core.materialize_us"] = mean(matNs) / 1e3
	out["core.lookup_us"] = mean(lookNs) / 1e3

	histogramProbe(groups, domains, out)

	// executor.Execute allocation, on the captured plans.
	if len(d.plans) > 0 {
		i := 0
		out["executor.alloc_kb"] = allocKiB(len(d.plans), func() {
			p := d.plans[i]
			i++
			var m costmodel.Meter
			rt := &executor.Runtime{DB: e.DB(), Indexes: e.Indexes(), Weights: w, Meter: &m, Ctx: ctx, Parallelism: 1}
			_, _ = executor.Execute(p.blk, p.plan, rt) // a stale plan still runs; only bytes are measured
		})
	}

	return storageProbes(e, out)
}

// constraintBox turns a boxable predicate group into the half-open box the
// archive would store for it; ok is false for NE/IN or repeated columns.
func constraintBox(cols []string, preds []qgm.Predicate, dom map[string]core.ColumnDomain) (histogram.Box, bool) {
	box := histogram.FullBox(len(cols))
	seen := make(map[string]bool)
	for _, p := range preds {
		iv, ok := p.Region()
		d := sort.SearchStrings(cols, p.Column)
		if !ok || seen[p.Column] || d >= len(cols) || cols[d] != p.Column {
			return histogram.Box{}, false
		}
		seen[p.Column] = true
		unit := dom[p.Column].Unit
		if unit <= 0 {
			unit = 1
		}
		if iv.Lo > -1e300 {
			box.Lo[d] = iv.Lo
			if iv.LoOpen {
				box.Lo[d] += unit
			}
		}
		if iv.Hi < 1e300 {
			box.Hi[d] = iv.Hi
			if !iv.HiOpen {
				box.Hi[d] += unit
			}
		}
	}
	return box, true
}

// histogramProbe adds up to 64 captured constraints to a fresh grid per
// 1-D and 2-D column set and then estimates the same boxes.
func histogramProbe(groups []probedGroup, domains map[string]map[string]core.ColumnDomain, out map[string]float64) {
	type target struct {
		table string
		cols  []string
		boxes []histogram.Box
		fracs []float64
	}
	targets := make(map[string]*target)
	for _, g := range groups {
		cols := qgm.GroupColumns(g.preds)
		if len(cols) > 2 || len(cols) != len(g.preds) {
			continue
		}
		box, ok := constraintBox(cols, g.preds, domains[g.table])
		if !ok {
			continue
		}
		key := qgm.ColumnGroupKey(g.table, cols)
		t := targets[key]
		if t == nil {
			t = &target{table: g.table, cols: cols}
			targets[key] = t
		}
		if len(t.boxes) < 64 {
			t.boxes = append(t.boxes, box)
			t.fracs = append(t.fracs, math.Min(1, math.Max(0, g.sel)))
		}
	}
	var addNs, estNs []float64
	buckets := 0
	for _, key := range sortedKeys(targets) {
		t := targets[key]
		lo, hi := make([]float64, len(t.cols)), make([]float64, len(t.cols))
		usable := true
		for i, c := range t.cols {
			d, ok := domains[t.table][c]
			if !ok || !(d.Lo <= d.Hi) {
				usable = false
				break
			}
			lo[i], hi[i] = d.Lo, d.Hi+math.Max(d.Unit, 1e-9)
		}
		if !usable {
			continue
		}
		h, err := histogram.NewGrid(t.cols, lo, hi, 1)
		if err != nil {
			continue
		}
		for i, b := range t.boxes {
			addNs = append(addNs, perCall(1, func() { _ = h.AddConstraint(b, t.fracs[i], int64(i+2)) }))
		}
		for _, b := range t.boxes {
			estNs = append(estNs, perCall(1, func() { _, _ = h.EstimateBox(b) }))
		}
		buckets += h.Buckets()
	}
	out["histogram.addconstraint_us"] = mean(addNs) / 1e3
	out["histogram.estimate_us"] = mean(estNs) / 1e3
	out["histogram.buckets"] = float64(buckets)
}

// largestTable returns the table with the most rows.
func largestTable(db *storage.Database) *storage.Table {
	var best *storage.Table
	for _, name := range db.TableNames() {
		if tbl, _ := db.Table(name); best == nil || tbl.RowCount() > best.RowCount() {
			best = tbl
		}
	}
	return best
}

// indexRebuilds sums Index.Rebuilds over every index of the engine.
func indexRebuilds(e *engine.Engine) float64 {
	n := 0
	for _, name := range e.DB().TableNames() {
		for _, col := range e.Indexes().ForTable(name) {
			if ix, ok := e.Indexes().Find(name, col); ok {
				n += ix.Rebuilds()
			}
		}
	}
	return float64(n)
}

var scanSink int64

// storageProbes times snapshot chunk iteration, index lookup, the index
// rebuild a one-row insert causes, and batch insert, on the largest table.
// It mutates the table, so it runs last.
func storageProbes(e *engine.Engine, out map[string]float64) error {
	tbl := largestTable(e.DB())
	snap := tbl.Snapshot()
	if snap.NumRows() == 0 {
		return fmt.Errorf("probe: table %s is empty", tbl.Name())
	}
	scanNs := perCall(20, func() {
		snap.Range(0, snap.NumRows(), func(ch *storage.Chunk, _, clo, chi int) bool {
			for _, v := range ch.Col(0).Ints()[clo:chi] {
				scanSink += v
			}
			return true
		})
	})
	out["storage.scan_ns_per_row"] = scanNs / float64(snap.NumRows())

	cols := e.Indexes().ForTable(tbl.Name())
	if len(cols) == 0 {
		return fmt.Errorf("probe: table %s has no index", tbl.Name())
	}
	ix, _ := e.Indexes().Find(tbl.Name(), cols[0])
	ord, _ := tbl.Schema().Ordinal(ix.Column())
	keys := snap.ColumnValues(ord)
	ix.Lookup(keys[0]) // build it
	k := 0
	out["index.lookup_ns"] = perCall(20000, func() {
		ix.Lookup(keys[k%len(keys)])
		k += 7919
	})

	row, err := snap.Row(0)
	if err != nil {
		return err
	}
	nextID := int64(1 << 40)
	fresh := func() []value.Datum {
		r := append([]value.Datum(nil), row...)
		r[0] = value.NewInt(nextID)
		nextID++
		return r
	}
	var rebuildNs []float64
	for i := 0; i < 3; i++ {
		if err := tbl.Insert(fresh()); err != nil {
			return err
		}
		rebuildNs = append(rebuildNs, perCall(1, func() { ix.Lookup(keys[0]) }))
	}
	out["index.rebuild_ms"] = mean(rebuildNs) / 1e6

	const batch = 512
	var insertNs []float64
	for i := 0; i < 5; i++ {
		rows := make([][]value.Datum, batch)
		for j := range rows {
			rows[j] = fresh()
		}
		insertNs = append(insertNs, perCall(1, func() { err = tbl.InsertBatch(rows) }))
		if err != nil {
			return err
		}
	}
	out["storage.insert_us_per_row"] = mean(insertNs) / 1e3 / batch
	return nil
}

// servedProbe replays a sample of the workload's SELECTs three ways on one
// warm engine — embedded Exec, the wire codec alone on that result, and a
// loopback client session — so the served cost splits into engine, codec
// and the residual (syscalls, session bookkeeping, scheduling).
func servedProbe(e *engine.Engine, timed []item, out map[string]float64) error {
	var sqls []string
	for _, it := range timed {
		if it.query {
			sqls = append(sqls, it.sql)
		}
	}
	if step := len(sqls) / servedSample; step > 1 {
		var picked []string
		for i := 0; i < len(sqls); i += step {
			picked = append(picked, sqls[i])
		}
		sqls = picked
	}
	srv := server.New(e)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	var queryNs, execNs, encNs, decNs []float64
	var frameBytes, rows float64
	var buf bytes.Buffer
	for pass := 0; pass < 2; pass++ { // pass 0 warms both paths
		for _, sql := range sqls {
			var res *engine.Result
			ex := perCall(1, func() { res, err = e.Exec(sql) })
			if err != nil {
				return fmt.Errorf("served probe: %s: %w", sql, err)
			}
			buf.Reset()
			enc := perCall(1, func() {
				err = wire.WriteFrame(&buf, &wire.Response{Type: wire.RespResult, Result: &wire.Result{
					Columns: res.Columns, Rows: wire.EncodeRows(res.Rows), Plan: res.Plan,
					CompileSeconds: res.Metrics.CompileSeconds, ExecSeconds: res.Metrics.ExecSeconds,
				}})
			})
			if err != nil {
				return err
			}
			size := buf.Len()
			dec := perCall(1, func() {
				var resp wire.Response
				if err = wire.ReadFrame(&buf, &resp); err == nil {
					_, err = wire.DecodeRows(resp.Result.Rows)
				}
			})
			if err != nil {
				return err
			}
			q := perCall(1, func() { _, err = c.Query(sql) })
			if err != nil {
				return fmt.Errorf("served probe: %s: %w", sql, err)
			}
			if pass == 1 {
				execNs, encNs, decNs, queryNs = append(execNs, ex), append(encNs, enc), append(decNs, dec), append(queryNs, q)
				frameBytes += float64(size)
				rows += float64(len(res.Rows))
			}
		}
	}
	out["client.query_ms"] = mean(queryNs) / 1e6
	out["wire.encode_us"] = mean(encNs) / 1e3
	out["wire.decode_us"] = mean(decNs) / 1e3
	out["wire.bytes_per_row"] = ratio(frameBytes, rows)
	out["wire.frame_kb"] = ratio(frameBytes/1024, float64(len(sqls)))
	residual := mean(queryNs) - mean(execNs) - mean(encNs) - mean(decNs)
	out["server.residual_ms"] = residual / 1e6
	out["engine.served_share"] = ratio(mean(execNs), mean(queryNs))
	out["wire.served_share"] = ratio(mean(encNs)+mean(decNs), mean(queryNs))
	out["server.served_share"] = ratio(residual, mean(queryNs))

	const point = `SELECT name, city FROM owner WHERE id = 1`
	var perr error
	warmPoint := func(fn func() error) float64 {
		_ = fn() // the first call compiles; the 200 timed ones hit the cache
		return perCall(200, func() {
			if err := fn(); err != nil {
				perr = err
			}
		})
	}
	viaWire := warmPoint(func() error { _, err := c.Query(point); return err })
	embedded := warmPoint(func() error { _, err := e.Exec(point); return err })
	out["server.point_rtt_us"] = (viaWire - embedded) / 1e3
	return perr
}
