package executor

import (
	"slices"

	"repro/internal/storage"
	"repro/internal/value"
)

// Columnar is a finished result with no value boxed yet: named columns — a
// table column seen through a relation's row positions, or the cells
// aggregation produced — and the rows of them that survived DISTINCT, ORDER
// BY and LIMIT, in result order. Rows boxes it into cells, which is what
// Execute and the engine's Exec family do at their exit; the SQL service
// never does, it encodes the columns (wire.EncodeResult reads table columns
// as typed vectors through Vector and everything else through Cells).
//
// A Columnar pins the snapshots its columns read, so it stays valid under
// later DML. Vector rearranges what it holds on first use: one goroutine at a
// time.
type Columnar struct {
	Names   []string
	Actuals []ScanActual

	cols  []column
	rows  []int32         // the surviving rows of cols in result order; nil = 0..n-1
	n     int             // rows in the result (while finishing: rows in cols)
	boxed [][]value.Datum // FromRows: the rows the columns read
}

// FromRows wraps rows that never were columns — EXPLAIN's plan lines, a SHOW
// statement's listing — so that every result reaches the encoder as a
// Columnar. It has no columns to read through, only the rows: Rows hands them
// back, Cells reads down them, and the width is the first row's.
func FromRows(names []string, rows [][]value.Datum) *Columnar {
	return &Columnar{Names: names, n: len(rows), boxed: rows}
}

// picked is a column read through a row list.
type picked struct {
	column
	rows []int32
}

func (c picked) Datum(i int) value.Datum { return c.column.Datum(int(c.rows[i])) }

// Len returns the number of rows; a statement without a result set (nil) has
// none.
func (c *Columnar) Len() int {
	if c == nil {
		return 0
	}
	return c.n
}

// NumCols returns the number of columns.
func (c *Columnar) NumCols() int {
	switch {
	case c == nil:
		return 0
	case len(c.boxed) > 0:
		return len(c.boxed[0])
	}
	return len(c.cols)
}

// Cells boxes column j into buf, which is grown as needed and returned: how
// a column that has no typed vector is read, and how a caller that wants one
// column of a result takes it without boxing the rows.
func (c *Columnar) Cells(j int, buf []value.Datum) []value.Datum {
	buf = slices.Grow(buf[:0], c.n)[:c.n]
	if c.boxed != nil {
		for r := range buf {
			buf[r] = c.boxed[r][j]
		}
		return buf
	}
	col := c.cols[j]
	for r := range buf {
		buf[r] = col.Datum(c.row(r))
	}
	return buf
}

// row returns which row of the columns is row r of the result.
func (c *Columnar) row(r int) int {
	if c.rows != nil {
		return int(c.rows[r])
	}
	return r
}

// Rows boxes the result — the one place a result's values are boxed — column
// by column into one rows × cols backing array, the shape wire.DecodeRows
// returns. Every call boxes again, except that a FromRows result hands back
// the rows it wraps.
func (c *Columnar) Rows() [][]value.Datum {
	if c == nil {
		return nil
	}
	if c.boxed != nil {
		return c.boxed
	}
	width := len(c.cols)
	cells := make([]value.Datum, c.n*width)
	for j, col := range c.cols {
		for r := 0; r < c.n; r++ {
			cells[r*width+j] = col.Datum(c.row(r))
		}
	}
	rows := make([][]value.Datum, c.n)
	for r := range rows {
		rows[r] = cells[r*width : (r+1)*width : (r+1)*width]
	}
	return rows
}

// Vector returns column j as a typed vector of Len cells when it is a table
// column — gathered through the relation's row positions into dst, whose
// arrays are reused (nil allocates) — and nil when its cells exist only
// boxed: an aggregate's, or a FromRows result's.
func (c *Columnar) Vector(j int, dst *storage.ColumnVec) *storage.ColumnVec {
	if c.boxed != nil {
		return nil
	}
	if _, ok := c.cols[j].(rowsColumn); !ok {
		return nil
	}
	c.settle()
	col := c.cols[j].(rowsColumn)
	return col.snap.GatherColumn(dst, col.ordinal, col.pos[:c.n])
}

// settle folds the row list into the columns, so that cell i of every column
// is row i of the result: a table column's positions are composed with it
// once per relation slot (the columns of a slot share one position vector,
// before and after). What Cells and Rows return does not change.
func (c *Columnar) settle() {
	if c.rows == nil {
		return
	}
	rows := c.rows[:c.n]
	var from, to [][]int32 // position vectors already composed
	for j, col := range c.cols {
		rc, ok := col.(rowsColumn)
		if !ok {
			c.cols[j] = picked{col, rows}
			continue
		}
		k := slices.IndexFunc(from, func(pos []int32) bool { return sameVector(pos, rc.pos) })
		if k < 0 {
			k = len(from)
			from, to = append(from, rc.pos), append(to, take(rc.pos, rows))
		}
		rc.pos = to[k]
		c.cols[j] = rc
	}
	c.rows = nil
}

// sameVector reports whether a and b are one position vector.
func sameVector(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
