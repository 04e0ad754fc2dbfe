package engine

import (
	"fmt"
	"sync"

	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// coerce adapts a literal to the column kind where SQL does implicitly:
// integer literals store into FLOAT columns as floats. Anything else is
// left for storage-level validation to accept or reject.
func coerce(d value.Datum, kind value.Kind) value.Datum {
	if kind == value.KindFloat && d.Kind() == value.KindInt {
		return value.NewFloat(float64(d.Int()))
	}
	return d
}

// execInsert appends rows; the workload's update stream flows through here
// and feeds the UDI counters the sensitivity analysis watches.
func (e *Engine) execInsert(s *statement, stmt *sqlparser.InsertStmt) (*Result, error) {
	tbl, ok := e.db.Table(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", stmt.Table)
	}
	schema := tbl.Schema()

	var ordinals []int
	if len(stmt.Columns) > 0 {
		ordinals = make([]int, len(stmt.Columns))
		for i, c := range stmt.Columns {
			o, ok := schema.Ordinal(c)
			if !ok {
				return nil, fmt.Errorf("engine: table %s has no column %q", stmt.Table, c)
			}
			ordinals[i] = o
		}
	}

	ncols := schema.NumColumns()
	cells := make([]value.Datum, len(stmt.Rows)*ncols) // every row's backing, in one piece
	rows := make([][]value.Datum, 0, len(stmt.Rows))
	for r, vals := range stmt.Rows {
		row := cells[r*ncols : (r+1)*ncols : (r+1)*ncols]
		if ordinals == nil {
			if len(vals) != ncols {
				return nil, fmt.Errorf("engine: INSERT has %d values, table %s has %d columns",
					len(vals), stmt.Table, ncols)
			}
			for i, v := range vals {
				row[i] = coerce(v, schema.Column(i).Kind)
			}
		} else {
			if len(vals) != len(ordinals) {
				return nil, fmt.Errorf("engine: INSERT has %d values for %d columns", len(vals), len(ordinals))
			}
			for i, v := range vals {
				row[ordinals[i]] = coerce(v, schema.Column(ordinals[i]).Kind)
			}
		}
		rows = append(rows, row)
	}
	if err := tbl.InsertBatch(rows); err != nil {
		return nil, err
	}
	e.catchUpBeside(tbl, len(rows))
	s.meters.exec.Add(e.weights.RowOut * float64(len(rows)))
	return s.dmlResult(len(rows)), nil
}

// whereMatcher compiles a DML WHERE conjunction against one table into the
// matcher storage runs per chunk: the scan's predicate kernel.
func whereMatcher(tbl *storage.Table, where []sqlparser.Expr) (storage.Matcher, error) {
	preds, err := qgm.BuildLocalPredicates(tbl.Schema(), where)
	if err != nil {
		return nil, err
	}
	return func(dst []int32, ch *storage.Chunk) []int32 {
		return qgm.AppendMatches(dst, preds, ch, 0, ch.Rows(), 0)
	}, nil
}

func (e *Engine) execUpdate(s *statement, stmt *sqlparser.UpdateStmt) (*Result, error) {
	tbl, ok := e.db.Table(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", stmt.Table)
	}
	schema := tbl.Schema()
	sets := make([]storage.Assignment, len(stmt.Assignments))
	for i, a := range stmt.Assignments {
		o, ok := schema.Ordinal(a.Column)
		if !ok {
			return nil, fmt.Errorf("engine: table %s has no column %q", stmt.Table, a.Column)
		}
		sets[i] = storage.Assignment{Ordinal: o, Value: coerce(a.Value, schema.Column(o).Kind)}
	}
	match, err := whereMatcher(tbl, stmt.Where)
	if err != nil {
		return nil, err
	}
	s.meters.exec.Add(e.weights.SeqRow * float64(tbl.RowCount()))
	n, err := tbl.UpdateWhere(match, sets)
	if err != nil {
		return nil, err
	}
	e.catchUpBeside(tbl, n)
	return s.dmlResult(n), nil
}

func (e *Engine) execDelete(s *statement, stmt *sqlparser.DeleteStmt) (*Result, error) {
	tbl, ok := e.db.Table(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", stmt.Table)
	}
	match, err := whereMatcher(tbl, stmt.Where)
	if err != nil {
		return nil, err
	}
	s.meters.exec.Add(e.weights.SeqRow * float64(tbl.RowCount()))
	n := tbl.DeleteWhere(match)
	e.catchUpBeside(tbl, n)
	return s.dmlResult(n), nil
}

// catchUps holds, for each table with an index catch-up running, whether a
// write changed its rows after that catch-up took its snapshot. A table has
// at most one catch-up goroutine however many writes land while it runs.
type catchUps struct {
	mu      sync.Mutex
	pending map[*storage.Table]bool // true: dirty, the running catch-up goes round again
	running int                     // catch-up goroutines, read by a test seam
}

// catchUpBeside starts bringing tbl's built indexes to the rows a write that
// changed n of them left, on a goroutine of its own, so the statement after
// the write does not pay for it unless it probes one of them first — a probe
// then catches the index up itself, as it does any index behind its snapshot,
// and the goroutine finds it done. A write that finds tbl's catch-up running
// marks it dirty instead of starting another. Close waits for these
// goroutines; a write that finishes after Close starts none, and leaves the
// catch-up to the next probe.
func (e *Engine) catchUpBeside(tbl *storage.Table, n int) {
	if n == 0 {
		return
	}
	c := &e.catchUps
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, running := c.pending[tbl]; running {
		c.pending[tbl] = true
		return
	}
	if !e.maintenance.Begin() {
		return
	}
	if c.pending == nil {
		c.pending = make(map[*storage.Table]bool)
	}
	c.pending[tbl] = false
	c.running++
	go e.catchUp(tbl)
}

// catchUp catches tbl's indexes up until no write landed during a pass.
func (e *Engine) catchUp(tbl *storage.Table) {
	defer e.maintenance.End()
	c := &e.catchUps
	for dirty := true; dirty; {
		e.indexes.CatchUp(tbl)
		c.mu.Lock()
		if dirty = c.pending[tbl]; dirty {
			c.pending[tbl] = false
		} else {
			delete(c.pending, tbl)
			c.running--
		}
		c.mu.Unlock()
	}
}

func (e *Engine) execCreateTable(stmt *sqlparser.CreateTableStmt) (*Result, error) {
	cols := make([]storage.Column, len(stmt.Columns))
	for i, c := range stmt.Columns {
		cols[i] = storage.Column{Name: c.Name, Kind: c.Kind}
	}
	schema, err := storage.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	if _, err := e.db.CreateTable(stmt.Name, schema); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) execCreateIndex(stmt *sqlparser.CreateIndexStmt) (*Result, error) {
	tbl, ok := e.db.Table(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", stmt.Table)
	}
	if _, err := e.indexes.Create(tbl, stmt.Column); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// dmlResult reports a DML statement's affected rows; its work accrued on the
// statement's execution meter.
func (s *statement) dmlResult(n int) *Result {
	return &Result{RowsAffected: n, Metrics: buildMetrics(&s.meters.compile, &s.meters.exec)}
}
