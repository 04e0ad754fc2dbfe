// Package storage implements the in-memory table store underlying the
// engine. It plays the role DB2's storage layer plays for the paper's
// prototype: it holds rows, serves scans to the executor and the sampling
// module, and — crucially for JITS — maintains the per-table UDI counter
// (updates, deletes, inserts since the last statistics collection) that the
// sensitivity analysis consumes as its data-activity signal s2.
//
// Storage is chunked columnar: rows live in fixed-size chunks of typed
// column arrays (see chunk.go). Readers operate on immutable copy-on-write
// snapshots (see snapshot.go), so scans hold no lock while running user
// callbacks — a scan callback may even write to the same table — and every
// row a scan hands out is freshly materialized, never an aliased window
// into live storage.
//
// Writes are columnar too. Copy-on-write is per column vector: a writer that
// meets a chunk a snapshot holds replaces it with a shallow copy and clones
// only the vectors it writes, so `UPDATE … SET price` copies one vector of
// each chunk it touches, and every other vector keeps its pointer — which is
// how a secondary index knows it has nothing to do (see Chunk). UPDATE and
// DELETE find their rows through a Matcher, one call per chunk over the dense
// arrays, and never decode a row.
package storage

import (
	"fmt"
	"sync"

	"repro/internal/value"
)

// Column describes one column of a table schema.
type Column struct {
	Name string
	Kind value.Kind
}

// Schema is an ordered list of columns with name lookup.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// NewSchema builds a schema from columns. Column names must be unique
// (case-sensitive; the parser lowercases identifiers before they get here).
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("storage: empty column name at position %d", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("storage: duplicate column %q", c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and generators.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumColumns returns the column count.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i-th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Ordinal resolves a column name to its position.
func (s *Schema) Ordinal(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// UDI is the paper's update/delete/insert activity counter. It accumulates
// from the moment statistics were last collected on the table and is reset
// by the statistics-collection module.
type UDI struct {
	Updates int64
	Deletes int64
	Inserts int64
}

// Total is the aggregate activity the sensitivity analysis divides by the
// table cardinality to obtain s2.
func (u UDI) Total() int64 { return u.Updates + u.Deletes + u.Inserts }

// Table is a chunked columnar heap of rows with a fixed schema.
//
// Version semantics (normalized): every successful mutating call — Insert,
// InsertBatch, UpdateWhere, DeleteWhere — that changes at least one row
// advances the version counter by at least one. The counter is a staleness
// token, not a row count: InsertBatch advances it once for the whole batch,
// Insert once per call. Consumers (secondary indexes, cached statistics,
// the engine's plan-cache epoch) must therefore only compare versions for
// inequality, never interpret the delta; the UDI counter is what counts
// per-row activity. All methods are safe for concurrent use.
//
// DML contract: UpdateWhere and DeleteWhere take the table's write lock, ask
// the Matcher for each chunk's target offsets, and write column vectors in
// place after taking ownership of them (writableCol, writableAll). UPDATE
// assigns constants, validated against the schema before the first write, and
// owns only the columns it assigns; append, DELETE's compaction and truncation
// own every column of the chunks they write. A statement either applies whole
// or, on a validation error, not at all.
type Table struct {
	mu        sync.RWMutex
	name      string
	schema    *Schema
	chunkSize int
	chunks    []*Chunk
	nrows     int
	version   uint64
	udi       UDI
}

// NewTable creates an empty table with the default chunk size.
func NewTable(name string, schema *Schema) *Table {
	return NewTableWithChunkSize(name, schema, DefaultChunkSize)
}

// NewTableWithChunkSize creates an empty table with the given rows-per-chunk
// capacity; values < 1 select DefaultChunkSize. Tests shrink it to exercise
// chunk-boundary paths on small tables; benchmarks sweep it.
func NewTableWithChunkSize(name string, schema *Schema, chunkSize int) *Table {
	if chunkSize < 1 {
		chunkSize = DefaultChunkSize
	}
	return &Table{name: name, schema: schema, chunkSize: chunkSize}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// ChunkSize returns the table's rows-per-chunk capacity.
func (t *Table) ChunkSize() int { return t.chunkSize }

// RowCount returns the current cardinality.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nrows
}

// Version returns the mutation counter; see the Table doc for its
// (inequality-only) semantics.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// UDICounter returns the activity accumulated since the last ResetUDI.
func (t *Table) UDICounter() UDI {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.udi
}

// ResetUDI zeroes the activity counter; statistics collection calls this
// after refreshing the table's statistics.
func (t *Table) ResetUDI() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.udi = UDI{}
}

// Snapshot captures an immutable view of the table. The read lock is held
// only long enough to copy the chunk pointer list and mark the chunks
// shared; everything after that — chunk iteration, row materialization,
// vectorized filtering — is lock-free.
func (t *Table) Snapshot() *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	chunks := append([]*Chunk(nil), t.chunks...)
	for _, c := range chunks {
		if !c.shared.Load() {
			c.shared.Store(true)
		}
	}
	return &Snapshot{
		name: t.name, schema: t.schema, chunkSize: t.chunkSize,
		chunks: chunks, nrows: t.nrows, version: t.version,
	}
}

func (t *Table) checkRow(row []value.Datum) error {
	if len(row) != len(t.schema.cols) {
		return fmt.Errorf("storage: table %s expects %d columns, got %d", t.name, len(t.schema.cols), len(row))
	}
	for i, d := range row {
		if !t.fits(i, d) {
			return t.kindError(i, d)
		}
	}
	return nil
}

// fits reports whether d may be stored in column ordinal: NULL anywhere, any
// other value in a column of its kind.
func (t *Table) fits(ordinal int, d value.Datum) bool {
	return d.IsNull() || d.Kind() == t.schema.cols[ordinal].Kind
}

func (t *Table) kindError(ordinal int, d value.Datum) error {
	col := t.schema.cols[ordinal]
	return fmt.Errorf("storage: table %s column %s expects %s, got %s", t.name, col.Name, col.Kind, d.Kind())
}

// writable returns chunk ci for writing: if a snapshot holds it, a shallow
// copy that borrows every column vector takes its place first. The caller
// still has to own the vectors it writes. Caller must hold the write lock.
func (t *Table) writable(ci int) *Chunk {
	c := t.chunks[ci]
	if c.shared.Load() {
		c = c.borrow()
		t.chunks[ci] = c
	}
	return c
}

// writableCol returns one column vector of chunk ci that no snapshot can
// reach, cloning it the first time this writer touches it. Caller must hold
// the write lock.
func (t *Table) writableCol(ci, ordinal int) *ColumnVec {
	return t.writable(ci).own(ordinal)
}

// writableAll returns chunk ci with every vector owned, for writers of whole
// rows. Caller must hold the write lock.
func (t *Table) writableAll(ci int) *Chunk {
	c := t.writable(ci)
	c.ownAll()
	return c
}

// appendLocked appends validated rows, taking the tail chunk for writing once
// per chunk it fills. Caller must hold the write lock.
func (t *Table) appendLocked(rows [][]value.Datum) {
	for len(rows) > 0 {
		last := len(t.chunks) - 1
		if last < 0 || t.chunks[last].n >= t.chunkSize {
			t.chunks = append(t.chunks, newChunk(t.schema, t.chunkSize))
			last++
		}
		c := t.writableAll(last)
		n := min(len(rows), t.chunkSize-c.n)
		for _, row := range rows[:n] {
			c.appendRow(row)
		}
		t.nrows += n
		rows = rows[n:]
	}
}

// truncateLocked drops every row from position n on. Caller must hold the
// write lock.
func (t *Table) truncateLocked(n int) {
	keep := (n + t.chunkSize - 1) / t.chunkSize
	clear(t.chunks[keep:])
	t.chunks = t.chunks[:keep]
	if keep > 0 {
		if tail := n - (keep-1)*t.chunkSize; tail < t.chunks[keep-1].n {
			t.writableAll(keep - 1).truncate(tail)
		}
	}
	t.nrows = n
}

// Insert appends one row after validating it against the schema. The row is
// encoded into column arrays, so the caller's slice is never retained.
func (t *Table) Insert(row []value.Datum) error {
	if err := t.checkRow(row); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendLocked([][]value.Datum{row})
	t.version++
	t.udi.Inserts++
	return nil
}

// InsertBatch appends many rows with a single lock acquisition and a single
// version bump (version is a staleness token — see the Table doc); the UDI
// counter still counts every row.
func (t *Table) InsertBatch(rows [][]value.Datum) error {
	for _, r := range rows {
		if err := t.checkRow(r); err != nil {
			return err
		}
	}
	if len(rows) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendLocked(rows)
	t.version++
	t.udi.Inserts += int64(len(rows))
	return nil
}

// Scan invokes fn for every row in storage order until fn returns false.
// The scan runs over a snapshot: no lock is held during fn (a callback may
// mutate the table, including this one, without deadlocking), and every row
// is freshly materialized, so callers may retain rows without copying.
func (t *Table) Scan(fn func(rowIdx int, row []value.Datum) bool) {
	t.Snapshot().Scan(fn)
}

// ScanRange invokes fn for rows [lo, hi) in storage order until fn returns
// false; the bounds are clamped to the snapshot's row count, so a morsel
// issued against a since-shrunk table simply sees fewer rows. Like Scan it
// is snapshot-based: lock-free during fn, rows safe to retain.
func (t *Table) ScanRange(lo, hi int, fn func(rowIdx int, row []value.Datum) bool) {
	t.Snapshot().ScanRange(lo, hi, fn)
}

// Row returns a copy of the row at position idx.
func (t *Table) Row(idx int) ([]value.Datum, error) {
	return t.Snapshot().Row(idx)
}

// Matcher finds the rows of one chunk a DML statement targets: it appends
// their offsets within ch, ascending, to dst and returns the extended slice.
// It runs under the table's write lock — it must only read ch, and must not
// call back into the table. The engine builds one from its compiled
// predicates (qgm.AppendMatches).
type Matcher func(dst []int32, ch *Chunk) []int32

// Assignment is one `SET column = value` of an UPDATE.
type Assignment struct {
	Ordinal int
	Value   value.Datum
}

// UpdateWhere assigns sets, in order, to every row match selects and returns
// the number of rows selected. The values are validated against the schema
// before anything is written, so an error does not depend on the data: the
// table, its version and its UDI counter are as they were, whether the
// statement would have matched no row or all of them. Only the assigned
// columns' vectors are written (and copied, where a snapshot holds them).
func (t *Table) UpdateWhere(match Matcher, sets []Assignment) (int, error) {
	for _, a := range sets {
		if !t.fits(a.Ordinal, a.Value) {
			return 0, t.kindError(a.Ordinal, a.Value)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	var offs []int32
	for ci := range t.chunks {
		if offs = match(offs[:0], t.chunks[ci]); len(offs) == 0 {
			continue
		}
		for _, a := range sets {
			vec := t.writableCol(ci, a.Ordinal)
			for _, off := range offs {
				vec.set(int(off), a.Value)
			}
		}
		n += len(offs)
	}
	if n > 0 {
		t.version++
		t.udi.Updates += int64(n)
	}
	return n, nil
}

// DeleteWhere removes every row match selects and returns the number removed.
// Order is not preserved: holes are filled from the tail. The resulting order
// is defined as that of visiting positions in ascending order and, at each
// selected row, swapping the globally last row in and examining it again —
// later plans and result digests depend on it — but it is reached without
// visiting the survivors: with the selected positions in hand, each hole in
// ascending order first drops the selected rows off the tail and then takes
// the last survivor, so the work is one row copy per hole.
func (t *Table) DeleteWhere(match Matcher) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var doomed []int32 // selected positions, ascending
	for ci, ch := range t.chunks {
		from := len(doomed)
		doomed = match(doomed, ch)
		for k := from; k < len(doomed); k++ {
			doomed[k] += int32(ci * t.chunkSize)
		}
	}
	end := t.nrows // rows [end, nrows) are gone or moved
	for lo, hi := 0, len(doomed); lo < hi; {
		hole := int(doomed[lo])
		lo++
		for hi > lo && int(doomed[hi-1]) == end-1 {
			hi--
			end--
		}
		// The last row is now the hole itself or a survivor past it.
		end--
		if hole != end {
			dst := t.writableAll(hole / t.chunkSize)
			dst.copyRow(hole%t.chunkSize, t.chunks[end/t.chunkSize], end%t.chunkSize)
		}
	}
	n := len(doomed)
	if n > 0 {
		t.truncateLocked(end)
		t.version++
		t.udi.Deletes += int64(n)
	}
	return n
}

// ColumnValues returns a copy of one column's datums; used by RUNSTATS-style
// full statistics collection.
func (t *Table) ColumnValues(ordinal int) []value.Datum {
	return t.Snapshot().ColumnValues(ordinal)
}
