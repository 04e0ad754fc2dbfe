package executor_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// BenchmarkExecuteTemplates is the executor layer's own row: one instance of
// each of the six paper templates at scale 0.01, planned once from catalog
// statistics, then executed serially with every join of the plan forced to
// each method the operator can run (an index nested-loop join needs a scan
// inner with an index on a join column; single-table templates have the one
// "scan" variant). Run with -benchmem: bytes and allocations per execution
// are what late materialization moved.
//
//	go test -run '^$' -bench ExecuteTemplates -benchmem ./internal/executor/
func BenchmarkExecuteTemplates(b *testing.B) {
	e := engine.New(engine.Config{Parallelism: 1})
	d, err := workload.Load(e, workload.Spec{Scale: 0.01, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.RunstatsAll(); err != nil {
		b.Fatal(err)
	}
	seen := map[string]bool{}
	for _, st := range d.Queries(120, 1) {
		// Everything before WHERE tells the six templates apart; the FROM list
		// (plus "agg" for the aggregating one of a pair) names them.
		from, where := strings.Index(st.SQL, " FROM "), strings.Index(st.SQL, " WHERE ")
		if seen[st.SQL[:where]] {
			continue
		}
		seen[st.SQL[:where]] = true
		class := strings.ReplaceAll(st.SQL[from+len(" FROM "):where], " ", "")
		if strings.Contains(st.SQL, "GROUP BY") {
			class += ",agg"
		}
		blk := buildBlock(b, e, st.SQL)
		methods := []optimizer.JoinMethod{optimizer.HashJoin, optimizer.MergeJoin, optimizer.IndexNLJoin, optimizer.NestedLoopJoin}
		if len(blk.Tables) == 1 {
			methods = methods[:1]
		}
		for _, method := range methods {
			plan := catalogPlan(b, e, blk)
			name := "scan"
			if len(blk.Tables) > 1 {
				name = method.String()
				if !forceJoins(e, plan, method) {
					continue
				}
			}
			b.Run(fmt.Sprintf("%s/%s", class, name), func(b *testing.B) {
				b.ReportAllocs()
				rows := 0
				for i := 0; i < b.N; i++ {
					res, err := executor.Execute(blk, plan, &executor.Runtime{
						DB: e.DB(), Indexes: e.Indexes(), Weights: e.Weights(),
						Meter: new(costmodel.Meter), Parallelism: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					rows = len(res.Rows)
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
	if len(seen) != 6 {
		b.Fatalf("found %d templates, want 6: %v", len(seen), seen)
	}
}

// buildBlock parses one SELECT and builds its outer block.
func buildBlock(b *testing.B, e *engine.Engine, sql string) *qgm.Block {
	b.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	q, err := qgm.Build(stmt.(*sqlparser.SelectStmt), e)
	if err != nil {
		b.Fatal(err)
	}
	return q.Blocks[0]
}

// catalogPlan optimizes the block from catalog statistics.
func catalogPlan(b *testing.B, e *engine.Engine, blk *qgm.Block) optimizer.Node {
	b.Helper()
	plan, err := optimizer.Optimize(blk, &optimizer.Context{
		Est: &optimizer.Estimator{Cat: e.Catalog()}, Indexes: e.Indexes(),
		Weights: e.Weights(), Meter: new(costmodel.Meter),
	})
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkFinish prices the two exits of one execution — a 5000-row, seven-
// column range scan, the widest shape served_fetch fetches: rows boxes the
// result (Execute, what an embedded caller gets), columns leaves it as row
// positions behind named columns (Run, what the SQL service encodes). The
// difference is the rows × cols array of cells; everything before it is the
// same scan.
//
//	go test -run '^$' -bench Finish -benchmem ./internal/executor/
func BenchmarkFinish(b *testing.B) {
	e := engine.New(engine.Config{Parallelism: 1})
	if _, err := workload.Load(e, workload.Spec{Scale: 0.01, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	if err := e.RunstatsAll(); err != nil {
		b.Fatal(err)
	}
	blk := buildBlock(b, e, `SELECT id, ownerid, make, model, year, price, color FROM car WHERE id BETWEEN 1000 AND 5999`)
	plan := catalogPlan(b, e, blk)
	runtime := func() *executor.Runtime {
		return &executor.Runtime{
			DB: e.DB(), Indexes: e.Indexes(), Weights: e.Weights(),
			Meter: new(costmodel.Meter), Parallelism: 1,
		}
	}
	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		rows := 0
		for i := 0; i < b.N; i++ {
			res, err := executor.Execute(blk, plan, runtime())
			if err != nil {
				b.Fatal(err)
			}
			rows = len(res.Rows)
		}
		b.ReportMetric(float64(rows), "rows")
	})
	b.Run("columns", func(b *testing.B) {
		b.ReportAllocs()
		rows := 0
		for i := 0; i < b.N; i++ {
			res, err := executor.Run(blk, plan, runtime())
			if err != nil {
				b.Fatal(err)
			}
			rows = res.Len()
		}
		b.ReportMetric(float64(rows), "rows")
	})
}

// forceJoins rewrites every join of the plan to method and reports whether
// all of them could take it.
func forceJoins(e *engine.Engine, plan optimizer.Node, method optimizer.JoinMethod) bool {
	all := true
	optimizer.Walk(plan, func(n optimizer.Node) {
		j, ok := n.(*optimizer.Join)
		if !ok {
			return
		}
		if method == optimizer.IndexNLJoin {
			inner, isScan := j.Right.(*optimizer.Scan)
			indexed := false
			for _, jp := range j.Preds {
				if isScan && jp.RightSlot == inner.Slot {
					_, ok := e.Indexes().Find(inner.Table, jp.RightCol)
					indexed = indexed || ok
				}
			}
			if !indexed {
				all = false
				return
			}
		}
		j.Method = method
	})
	return all
}
