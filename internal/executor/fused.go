// Fused scan→aggregate. When a block is a single-table grouped aggregation
// (no join, no index access path), the executor skips materializing the
// filtered relation entirely: each chunk's selection vector feeds the group
// accumulator straight from the column arrays. The meter charges are
// formula-identical to the unfused scan-then-aggregate pipeline —
// SeqRow·examined + RowOut·matched at the scan, HashBuild·matched plus the
// group-state reservation at the aggregate — so EXPLAIN ANALYZE actuals,
// metered totals and the serial-vs-parallel differential all stay
// byte-identical to the unfused pipeline (TestFusedAggMatchesUnfused); only
// the intermediate row buffer (and its wall-clock and memory cost)
// disappears.
package executor

import (
	"sync/atomic"
	"time"

	"repro/internal/optimizer"
	"repro/internal/storage"
)

// runFusedAggScan executes a single-table aggregation block by absorbing
// matching chunk rows directly into group state. It records the same
// NodeStats the unfused scan node would (rows = matched, units = the
// scan-attributed charges) and the same ScanActual feedback.
func (ex *executor) runFusedAggScan(n *optimizer.Scan) (*Result, error) {
	if err := ex.rt.ctxErr(); err != nil {
		return nil, err
	}
	tbl, err := ex.baseTable(n.Table)
	if err != nil {
		return nil, err
	}
	w := ex.rt.Weights
	var before float64
	var start time.Time
	if ex.rt.Stats != nil {
		if ex.rt.Meter != nil {
			before = ex.rt.Meter.Units()
		}
		start = time.Now()
	}

	snap := tbl.Snapshot()
	width := snap.Schema().NumColumns()
	// A pseudo-relation carries the slot→offset mapping the accumulator
	// resolves columns through; it never holds rows.
	rel := &relation{
		offsets: map[int]int{n.Slot: 0},
		widths:  map[int]int{n.Slot: width},
		width:   width,
	}
	f := compileFilter(n.Preds, snap.Schema())

	// One accumulator per morsel absorbs the survivors of its chunk
	// sub-ranges; partials merge in morsel order.
	rows := snap.NumRows()
	partials := make([]*groupAccumulator, ex.rt.morselCount(rows))
	var examinedN, matchedN atomic.Int64
	if err := ex.rt.forMorsels(rows, func(m, lo, hi int) error {
		ga := newGroupAccumulator(ex.blk, rel)
		match := 0
		cnt, err := ex.scanMorsel(snap, f, lo, hi, func(ch *storage.Chunk, sel []int) error {
			match += len(sel)
			ga.absorbChunk(ch, sel)
			return nil
		})
		partials[m] = ga
		examinedN.Add(int64(cnt))
		matchedN.Add(int64(match))
		return err
	}); err != nil {
		return nil, err
	}
	ga, examined, matched := mergePartials(partials), examinedN.Load(), matchedN.Load()

	ex.rt.charge(w.SeqRow * float64(examined))
	ex.rt.charge(w.RowOut * float64(matched))
	if st := ex.rt.Stats; st != nil {
		after := before
		if ex.rt.Meter != nil {
			after = ex.rt.Meter.Units()
		}
		st.nodes[n] = NodeStats{
			Rows:  float64(matched),
			Units: after - before,
			Wall:  time.Since(start),
		}
	}
	if len(n.Preds) > 0 {
		ex.actuals = append(ex.actuals, ScanActual{
			Slot: n.Slot, Table: n.Table, Alias: n.Alias,
			BaseRows: float64(snap.NumRows()), Examined: float64(examined), Matched: float64(matched),
			Trace: n.Tr,
		})
	}
	return ex.aggregateFinish(ga, int(matched))
}
