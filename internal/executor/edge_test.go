package executor

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/index"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/value"
)

func TestIndexPositionsAllOps(t *testing.T) {
	e := newEnv(t)
	ix, ok := e.indexes.Find("car", "year")
	if !ok {
		t.Fatal("missing index")
	}
	mk := func(op qgm.PredOp) qgm.Predicate {
		return qgm.Predicate{Column: "year", Ordinal: 3, Op: op, Value: value.NewInt(1999)}
	}
	counts := map[qgm.PredOp]int{}
	for _, op := range []qgm.PredOp{qgm.OpEQ, qgm.OpLT, qgm.OpLE, qgm.OpGT, qgm.OpGE} {
		pos, err := indexPositions(ix, ix.Table().Snapshot(), mk(op))
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		counts[op] = len(pos)
	}
	// 200 cars, years 1990..2009 evenly: 10 per year.
	if counts[qgm.OpEQ] != 10 {
		t.Errorf("EQ = %d", counts[qgm.OpEQ])
	}
	if counts[qgm.OpLE]-counts[qgm.OpLT] != 10 || counts[qgm.OpGE]-counts[qgm.OpGT] != 10 {
		t.Errorf("boundary deltas: %v", counts)
	}
	if counts[qgm.OpLE]+counts[qgm.OpGT] != 200 {
		t.Errorf("partition: %v", counts)
	}
	// BETWEEN.
	pos, err := indexPositions(ix, ix.Table().Snapshot(), qgm.Predicate{
		Column: "year", Ordinal: 3, Op: qgm.OpBetween,
		Lo: value.NewInt(1995), Hi: value.NewInt(1999),
	})
	if err != nil || len(pos) != 50 {
		t.Errorf("BETWEEN = %d, %v", len(pos), err)
	}
	// Non-sargable op errors.
	if _, err := indexPositions(ix, ix.Table().Snapshot(), qgm.Predicate{Column: "year", Op: qgm.OpNE, Value: value.NewInt(1999)}); err == nil {
		t.Error("NE must not be sargable")
	}
}

func TestExecuteMissingTable(t *testing.T) {
	e := newEnv(t)
	stmt, err := sqlparser.Parse(`SELECT id FROM car WHERE year = 1999`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := qgm.Build(stmt.(*sqlparser.SelectStmt), e)
	if err != nil {
		t.Fatal(err)
	}
	var cm costmodel.Meter
	ctx := &optimizer.Context{Est: &optimizer.Estimator{Cat: e.cat}, Indexes: e.indexes, Weights: costmodel.DefaultWeights(), Meter: &cm}
	plan, err := optimizer.Optimize(q.Blocks[0], ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: drop the table between planning and execution.
	if err := e.db.DropTable("car"); err != nil {
		t.Fatal(err)
	}
	var m costmodel.Meter
	if _, err := Execute(q.Blocks[0], plan, &Runtime{DB: e.db, Indexes: e.indexes, Weights: costmodel.DefaultWeights(), Meter: &m}); err == nil {
		t.Error("execution against a dropped table must fail")
	}
}

func TestExecutePlanWithMissingIndex(t *testing.T) {
	e := newEnv(t)
	scan := &optimizer.Scan{
		Slot: 0, Alias: "car", Table: "car",
		IndexColumn: "ghost",
		IndexPred:   &qgm.Predicate{Column: "ghost", Op: qgm.OpEQ, Value: value.NewInt(1)},
	}
	stmt, _ := sqlparser.Parse(`SELECT id FROM car`)
	q, err := qgm.Build(stmt.(*sqlparser.SelectStmt), e)
	if err != nil {
		t.Fatal(err)
	}
	var m costmodel.Meter
	rt := &Runtime{DB: e.db, Indexes: index.NewSet(), Weights: costmodel.DefaultWeights(), Meter: &m}
	if _, err := Execute(q.Blocks[0], scan, rt); err == nil {
		t.Error("plan referencing a missing index must fail")
	}
}

func TestActualSelectivityEdges(t *testing.T) {
	a := ScanActual{BaseRows: 0, Matched: 5}
	if got := a.ActualSelectivity(); got != 0 {
		t.Errorf("zero base rows sel = %v", got)
	}
	c := ScanActual{Conditioned: true, Examined: 0, Matched: 0}
	if got := c.ActualSelectivity(); got != 0 {
		t.Errorf("conditioned zero examined sel = %v", got)
	}
	c2 := ScanActual{Conditioned: true, Examined: 10, Matched: 5}
	if got := c2.ActualSelectivity(); got != 0.5 {
		t.Errorf("conditioned sel = %v", got)
	}
}
