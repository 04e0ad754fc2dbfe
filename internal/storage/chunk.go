// Columnar chunk layout. A table's rows are stored as a sequence of
// fixed-capacity chunks; within a chunk each column is one typed Go slice
// ([]int64, []float64 or []string) plus a null bitmap, so scans and
// vectorized operators touch dense arrays instead of [][]value.Datum rows.
// The design follows the fixed-width chunk-file idea the roadmap cites
// (zchunkedrows): row i lives at chunk i/chunkSize, offset i%chunkSize,
// because every chunk except the last is always exactly full — inserts
// append to the tail chunk and deletes swap the globally last row into the
// hole, so only the tail chunk ever has a partial row count.
package storage

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/value"
)

// DefaultChunkSize is the number of rows per columnar chunk. Large enough
// that per-chunk overhead (snapshot pointer copies, per-chunk reservation
// charges) is noise, small enough that a chunk's column arrays stay cache-
// and allocator-friendly and copy-on-write clones stay cheap.
const DefaultChunkSize = 4096

// ColumnVec is one column of one chunk: a dense typed array with a null
// bitmap. Exactly one of the typed slices is populated, selected by the
// column's schema kind; NULL rows keep a zero placeholder in the typed
// slice and set their bitmap bit.
//
// The typed accessors (Ints, Floats, Strs) expose the backing arrays
// directly so vectorized operators can loop over them without per-row
// decoding. Vectors reached through a Snapshot are immutable — callers
// must treat the returned slices as read-only.
type ColumnVec struct {
	kind   value.Kind
	ints   []int64
	floats []float64
	strs   []string
	nulls  []uint64 // bit i set ⇒ row i is NULL
}

func newColumnVec(kind value.Kind, capacity int) *ColumnVec {
	v := &ColumnVec{kind: kind, nulls: make([]uint64, (capacity+63)/64)}
	switch kind {
	case value.KindInt:
		v.ints = make([]int64, 0, capacity)
	case value.KindFloat:
		v.floats = make([]float64, 0, capacity)
	default: // KindString, and any future kind, stores through the string array
		v.strs = make([]string, 0, capacity)
	}
	return v
}

// Kind returns the column's schema kind.
func (v *ColumnVec) Kind() value.Kind { return v.kind }

// Len returns the number of rows in the vector.
func (v *ColumnVec) Len() int {
	switch v.kind {
	case value.KindInt:
		return len(v.ints)
	case value.KindFloat:
		return len(v.floats)
	default:
		return len(v.strs)
	}
}

// Ints returns the dense int64 array; valid only when Kind is KindInt.
// Read-only for snapshot readers.
func (v *ColumnVec) Ints() []int64 { return v.ints }

// Floats returns the dense float64 array; valid only when Kind is KindFloat.
// Read-only for snapshot readers.
func (v *ColumnVec) Floats() []float64 { return v.floats }

// Strs returns the dense string array; valid only when Kind is KindString.
// Read-only for snapshot readers.
func (v *ColumnVec) Strs() []string { return v.strs }

// Null reports whether row i is NULL.
func (v *ColumnVec) Null(i int) bool {
	return v.nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

// HasNulls reports whether any row in the vector is NULL; vectorized
// predicate loops skip the bitmap test entirely when it is false.
func (v *ColumnVec) HasNulls() bool {
	for _, w := range v.nulls {
		if w != 0 {
			return true
		}
	}
	return false
}

// NullCount returns the number of NULL rows.
func (v *ColumnVec) NullCount() int {
	n := 0
	for _, w := range v.nulls {
		n += bits.OnesCount64(w)
	}
	return n
}

// Datum decodes row i into a value.Datum (no allocation: Datum is a value).
func (v *ColumnVec) Datum(i int) value.Datum {
	if v.Null(i) {
		return value.Null
	}
	switch v.kind {
	case value.KindInt:
		return value.NewInt(v.ints[i])
	case value.KindFloat:
		return value.NewFloat(v.floats[i])
	default:
		return value.NewString(v.strs[i])
	}
}

// MinMax returns the vector's smallest and largest finite value
// (value.Datum.Finite: NULL, NaN and ±Inf have no place in a domain), NULL
// for both when it has none.
func (v *ColumnVec) MinMax() (min, max value.Datum) {
	switch v.kind {
	case value.KindInt:
		return minMax(v, v.ints, value.NewInt)
	case value.KindFloat:
		return minMax(v, v.floats, value.NewFloat)
	default:
		return minMax(v, v.strs, value.NewString)
	}
}

func minMax[T value.Ordered](v *ColumnVec, vals []T, datum func(T) value.Datum) (min, max value.Datum) {
	var lo, hi T
	seen, nulls := false, v.HasNulls()
	for i, x := range vals {
		switch {
		case nulls && v.Null(i) || !datum(x).Finite():
		case !seen:
			lo, hi, seen = x, x, true
		case value.Order(x, lo) < 0:
			lo = x
		case value.Order(x, hi) > 0:
			hi = x
		}
	}
	if !seen {
		return value.Null, value.Null
	}
	return datum(lo), datum(hi)
}

// SizeBytes returns the exact accounted size of the vector's column arrays:
// the typed array, string payloads, and the null bitmap. This is the number
// chunk-level reservations charge in place of per-row estimates.
func (v *ColumnVec) SizeBytes() int64 {
	b := int64(len(v.nulls)) * 8
	switch v.kind {
	case value.KindInt:
		b += int64(len(v.ints)) * 8
	case value.KindFloat:
		b += int64(len(v.floats)) * 8
	default:
		b += int64(len(v.strs)) * 16
		for _, s := range v.strs {
			b += int64(len(s))
		}
	}
	return b
}

func (v *ColumnVec) append(d value.Datum) {
	i := v.Len()
	if w := i >> 6; w >= len(v.nulls) {
		v.nulls = append(v.nulls, 0)
	}
	if d.IsNull() {
		v.nulls[i>>6] |= 1 << (uint(i) & 63)
		switch v.kind {
		case value.KindInt:
			v.ints = append(v.ints, 0)
		case value.KindFloat:
			v.floats = append(v.floats, 0)
		default:
			v.strs = append(v.strs, "")
		}
		return
	}
	switch v.kind {
	case value.KindInt:
		v.ints = append(v.ints, d.Int())
	case value.KindFloat:
		v.floats = append(v.floats, d.Float())
	default:
		v.strs = append(v.strs, d.Str())
	}
}

func (v *ColumnVec) set(i int, d value.Datum) {
	mask := uint64(1) << (uint(i) & 63)
	if d.IsNull() {
		v.nulls[i>>6] |= mask
		switch v.kind {
		case value.KindInt:
			v.ints[i] = 0
		case value.KindFloat:
			v.floats[i] = 0
		default:
			v.strs[i] = ""
		}
		return
	}
	v.nulls[i>>6] &^= mask
	switch v.kind {
	case value.KindInt:
		v.ints[i] = d.Int()
	case value.KindFloat:
		v.floats[i] = d.Float()
	default:
		v.strs[i] = d.Str()
	}
}

func (v *ColumnVec) truncate(n int) {
	switch v.kind {
	case value.KindInt:
		v.ints = v.ints[:n]
	case value.KindFloat:
		v.floats = v.floats[:n]
	default:
		v.strs = v.strs[:n]
	}
	// Clear bitmap bits past n so a future append at n starts clean: the tail
	// of n's word by mask, the words after it whole.
	if w := n >> 6; w < len(v.nulls) {
		v.nulls[w] &= 1<<(uint(n)&63) - 1
		clear(v.nulls[w+1:])
	}
}

// resize sets the vector's length to n (within its capacity); rows past the
// old length are zero values, non-NULL.
func (v *ColumnVec) resize(n int) {
	switch v.kind {
	case value.KindInt:
		v.ints = v.ints[:n]
	case value.KindFloat:
		v.floats = v.floats[:n]
	default:
		v.strs = v.strs[:n]
	}
}

// reset turns v into an n-row vector of the given kind with no NULLs, keeping
// the arrays it already has. Its rows hold whatever they held: the caller
// writes every one.
func (v *ColumnVec) reset(kind value.Kind, n int) {
	v.kind = kind
	switch kind {
	case value.KindInt:
		v.ints = slices.Grow(v.ints[:0], n)[:n]
	case value.KindFloat:
		v.floats = slices.Grow(v.floats[:0], n)[:n]
	default:
		v.strs = slices.Grow(v.strs[:0], n)[:n]
	}
	words := (n + 63) / 64
	v.nulls = slices.Grow(v.nulls[:0], words)[:words]
	clear(v.nulls)
}

func (v *ColumnVec) setNull(i int) { v.nulls[i>>6] |= 1 << (uint(i) & 63) }

// copyFrom copies src's rows [lo, hi) over the rows starting at at, which
// must still be non-NULL (a fresh detached chunk's rows are).
func (v *ColumnVec) copyFrom(at int, src *ColumnVec, lo, hi int) {
	switch v.kind {
	case value.KindInt:
		copy(v.ints[at:], src.ints[lo:hi])
	case value.KindFloat:
		copy(v.floats[at:], src.floats[lo:hi])
	default:
		copy(v.strs[at:], src.strs[lo:hi])
	}
	if src.HasNulls() {
		for j := lo; j < hi; j++ {
			if src.Null(j) {
				v.setNull(at + j - lo)
			}
		}
	}
}

// copyCell overwrites row i with src's row j; the vectors are of one kind.
func (v *ColumnVec) copyCell(i int, src *ColumnVec, j int) {
	mask := uint64(1) << (uint(i) & 63)
	if src.Null(j) {
		v.nulls[i>>6] |= mask
	} else {
		v.nulls[i>>6] &^= mask
	}
	switch v.kind {
	case value.KindInt:
		v.ints[i] = src.ints[j]
	case value.KindFloat:
		v.floats[i] = src.floats[j]
	default:
		v.strs[i] = src.strs[j]
	}
}

func (v *ColumnVec) clone() *ColumnVec {
	out := &ColumnVec{kind: v.kind, nulls: append([]uint64(nil), v.nulls...)}
	switch v.kind {
	case value.KindInt:
		out.ints = append(make([]int64, 0, cap(v.ints)), v.ints...)
	case value.KindFloat:
		out.floats = append(make([]float64, 0, cap(v.floats)), v.floats...)
	default:
		out.strs = append(make([]string, 0, cap(v.strs)), v.strs...)
	}
	return out
}

// Chunk is a fixed-capacity columnar slab of rows: one column vector per
// schema column. What a Snapshot can reach is immutable. The table marks a
// chunk shared when a snapshot captures it, and a writer that finds the mark
// replaces the chunk with a copy before it writes — a shallow copy, which
// borrows every column vector, and then deep-copies only the vectors it is
// about to write (copy-on-write per column). So snapshot readers never
// observe a half-applied change and never take a lock while reading, and an
// UPDATE of one column of a captured chunk copies that one vector.
//
// The rule consumers may lean on, per column vector: a vector reachable from
// a Snapshot is never written — not its values, its null bitmap or its
// length — so pointer equality of two vectors across snapshots of one table
// implies content equality (and pointer equality of two chunks implies it for
// every column). A secondary index catches up to a newer snapshot by skipping
// every chunk whose indexed column's vector did not change pointer
// (internal/index); TestSnapshotChunksNeverWritten pins the rule.
type Chunk struct {
	cols []*ColumnVec
	n    int
	// shared is set (under the table's read lock) when a snapshot captures
	// the chunk and read (under the write lock) by mutators deciding whether
	// to copy-on-write. It is monotone within one chunk's lifetime: copies
	// start unshared.
	shared atomic.Bool
	// owned[i] says cols[i] is this chunk's own; a vector that is not still
	// belongs to the chunk this one was copied from and must be cloned before
	// it is written. nil when the chunk owns every vector. Only the writer
	// that made the copy reads or writes it, under the table's write lock,
	// and only until the chunk is shared.
	owned []bool
}

func newChunk(schema *Schema, capacity int) *Chunk {
	c := &Chunk{cols: make([]*ColumnVec, schema.NumColumns())}
	for i := range c.cols {
		c.cols[i] = newColumnVec(schema.cols[i].Kind, capacity)
	}
	return c
}

// NewDetachedChunk returns a chunk of n zero-valued, non-NULL rows that no
// table owns: the destination of Snapshot.Gather. Its creator may hand it
// out as immutable once filled.
func NewDetachedChunk(schema *Schema, n int) *Chunk {
	c := newChunk(schema, n)
	for i := range c.cols {
		c.cols[i].resize(n)
	}
	c.n = n
	return c
}

// ChunkFromRows builds a detached chunk out of row-shaped data. A column's
// kind is that of its first non-NULL datum (string when it has none); rows
// must agree on each column's kind, as table rows do.
func ChunkFromRows(rows [][]value.Datum) *Chunk {
	c := &Chunk{}
	if len(rows) == 0 {
		return c
	}
	c.cols = make([]*ColumnVec, len(rows[0]))
	for ci := range c.cols {
		kind := value.KindString
		for _, row := range rows {
			if !row[ci].IsNull() {
				kind = row[ci].Kind()
				break
			}
		}
		c.cols[ci] = newColumnVec(kind, len(rows))
	}
	for _, row := range rows {
		c.appendRow(row)
	}
	return c
}

// Rows returns the number of rows in the chunk.
func (c *Chunk) Rows() int { return c.n }

// Col returns column ordinal's vector. Read-only for snapshot readers.
func (c *Chunk) Col(ordinal int) *ColumnVec { return c.cols[ordinal] }

// NumCols returns the chunk's column count.
func (c *Chunk) NumCols() int { return len(c.cols) }

// AppendRowTo appends row i's datums to buf and returns the extended slice;
// with a nil buf it materializes a fresh row. Rows decoded from snapshot
// chunks are freshly built and therefore safe to retain.
func (c *Chunk) AppendRowTo(buf []value.Datum, i int) []value.Datum {
	for ci := range c.cols {
		buf = append(buf, c.cols[ci].Datum(i))
	}
	return buf
}

// MatchRows adapts a predicate over decoded rows to a Matcher. It boxes every
// row of every chunk it is shown, which is what DML no longer does: it is for
// tests and tools whose predicate is Go code. pred receives a reused scratch
// row and must not retain it.
func MatchRows(pred func(row []value.Datum) bool) Matcher {
	var buf []value.Datum
	return func(dst []int32, ch *Chunk) []int32 {
		for i := 0; i < ch.n; i++ {
			if buf = ch.AppendRowTo(buf[:0], i); pred(buf) {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
}

// SizeBytes returns the exact accounted size of the chunk's column arrays.
func (c *Chunk) SizeBytes() int64 {
	var b int64
	for i := range c.cols {
		b += c.cols[i].SizeBytes()
	}
	return b
}

// The mutators below write vectors in place: the caller must own them (see
// Table.writableCol and Table.writableAll).

func (c *Chunk) appendRow(row []value.Datum) {
	for i := range c.cols {
		c.cols[i].append(row[i])
	}
	c.n++
}

// copyRow overwrites row i with src's row j.
func (c *Chunk) copyRow(i int, src *Chunk, j int) {
	for ci := range c.cols {
		c.cols[ci].copyCell(i, src.cols[ci], j)
	}
}

func (c *Chunk) truncate(n int) {
	for i := range c.cols {
		c.cols[i].truncate(n)
	}
	c.n = n
}

// borrow returns a shallow copy of the chunk that shares every column vector
// with it: what a writer puts in a shared chunk's place.
func (c *Chunk) borrow() *Chunk {
	return &Chunk{cols: append([]*ColumnVec(nil), c.cols...), n: c.n, owned: make([]bool, len(c.cols))}
}

// own returns column ordinal's vector for writing, cloning it first if it is
// still the other chunk's.
func (c *Chunk) own(ordinal int) *ColumnVec {
	if c.owned != nil && !c.owned[ordinal] {
		c.cols[ordinal] = c.cols[ordinal].clone()
		c.owned[ordinal] = true
	}
	return c.cols[ordinal]
}

// ownAll makes every vector the chunk's own.
func (c *Chunk) ownAll() {
	if c.owned == nil {
		return
	}
	for i := range c.cols {
		c.own(i)
	}
	c.owned = nil
}
