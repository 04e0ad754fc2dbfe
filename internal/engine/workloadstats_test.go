package engine_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// refWorkloadStats is the body CollectWorkloadStats had while it was a row
// loop: for every (workload SELECT × table) it boxed the whole table, counted
// every column's distinct values in a map, derived the domains from the rows
// and counted each group's matches chunk by chunk. Kept as the oracle the
// columnar pass must equal to the byte.
func refWorkloadStats(e *engine.Engine, sqls []string, ts int64) *core.Archive {
	archive := core.NewArchive(0, 0)
	for _, sql := range sqls {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			continue
		}
		sel, ok := stmt.(*sqlparser.SelectStmt)
		if !ok {
			continue
		}
		q, err := qgm.Build(sel, e)
		if err != nil {
			continue
		}
		for _, tc := range core.AnalyzeQuery(q, 0) {
			tbl, ok := e.DB().Table(tc.Table)
			if !ok {
				continue
			}
			snap := tbl.Snapshot()
			card := snap.NumRows()
			archive.SetCardinality(tc.Table, int64(card), ts)
			if card == 0 {
				continue
			}
			rows := make([][]value.Datum, 0, card)
			snap.Scan(func(_ int, row []value.Datum) bool {
				rows = append(rows, row)
				return true
			})
			domains := core.SampleDomains(tbl.Schema(), rows)
			schema := tbl.Schema()
			for c := 0; c < schema.NumColumns(); c++ {
				distinct := make(map[value.Key]bool, card)
				for _, row := range rows {
					if !row[c].IsNull() {
						distinct[row[c].Key()] = true
					}
				}
				if len(distinct) > 0 {
					archive.SetColumnNDV(tc.Table, schema.Column(c).Name, int64(len(distinct)), ts)
				}
			}
			var hits []int32
			for _, g := range tc.Groups {
				count := 0
				snap.Range(0, card, func(ch *storage.Chunk, _, clo, chi int) bool {
					hits = qgm.AppendMatches(hits[:0], g, ch, clo, chi, 0)
					count += len(hits)
					return true
				})
				archive.Materialize(tc.Table, g, float64(count)/float64(card), ts, domains)
			}
		}
	}
	return archive
}

// TestWorkloadStatsMatchRowReference: the workload-statistics archive built on
// the collect stage's kernels — each table gathered, counted and given its
// domains once — saves to the same bytes as the per-(query × table) row loop
// did, on the paper dataset and workload.
func TestWorkloadStatsMatchRowReference(t *testing.T) {
	e := engine.New(engine.Config{})
	d, err := workload.Load(e, workload.Spec{Scale: 0.01, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sqls := workload.QueryTexts(d.Workload(60, 43, true))
	// The paper's templates are all boxable; an IN group exercises the memo.
	sqls = append(sqls, `SELECT id FROM car WHERE make IN ('Toyota', 'Honda') AND year > 2000`)
	if err := e.CollectWorkloadStats(sqls); err != nil {
		t.Fatal(err)
	}
	got := e.JITS().Archive()
	want := refWorkloadStats(e, sqls, e.Now())
	if got.Histograms() == 0 || got.MemoEntries() == 0 {
		t.Fatalf("workload archive holds %d histograms and %d memo entries; the comparison needs both", got.Histograms(), got.MemoEntries())
	}
	var gotBytes, wantBytes bytes.Buffer
	if err := got.Save(&gotBytes); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&wantBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
		t.Fatalf("saved workload-statistics archives differ: %d bytes vs the row reference's %d", gotBytes.Len(), wantBytes.Len())
	}
	t.Logf("%d SELECT texts, %d histograms, %d memo entries, %d bytes saved", len(sqls), got.Histograms(), got.MemoEntries(), gotBytes.Len())
}
