package storage

import (
	"fmt"

	"repro/internal/value"
)

// Snapshot is an immutable view of a table at one version. Taking a
// snapshot briefly holds the table's read lock to copy the chunk pointer
// list and mark every chunk shared; from then on all reads are lock-free —
// mutations replace a shared chunk and copy the column vectors they write
// before touching them, so the snapshot keeps seeing exactly the rows it
// captured. This is what lets a scan run arbitrary user callbacks (including
// reentrant writes to the same table) without holding any lock, and what lets
// parallel workers treat morsels as chunk ranges of a consistent table image.
//
// A column vector reachable from a Snapshot is never written; pointer
// equality of vectors (or of whole chunks) across two snapshots of one table
// implies content equality (see Chunk). Holding a Snapshot keeps the vectors
// it captured alive, including ones the table has since replaced.
type Snapshot struct {
	name      string
	schema    *Schema
	chunkSize int
	chunks    []*Chunk
	nrows     int
	version   uint64
}

// Name returns the table name the snapshot was taken from.
func (s *Snapshot) Name() string { return s.name }

// Schema returns the table schema.
func (s *Snapshot) Schema() *Schema { return s.schema }

// NumRows returns the snapshot's row count.
func (s *Snapshot) NumRows() int { return s.nrows }

// Version returns the table version the snapshot captured.
func (s *Snapshot) Version() uint64 { return s.version }

// NumChunks returns the number of columnar chunks.
func (s *Snapshot) NumChunks() int { return len(s.chunks) }

// Chunk returns the i-th chunk. Chunks and their column vectors are
// immutable; callers must not modify them.
func (s *Snapshot) Chunk(i int) *Chunk { return s.chunks[i] }

// ChunkSize returns the rows-per-chunk capacity; every chunk except the
// last holds exactly this many rows, so row i lives at chunk i/ChunkSize,
// offset i%ChunkSize.
func (s *Snapshot) ChunkSize() int { return s.chunkSize }

// Row materializes a fresh copy of row idx; the returned slice is owned by
// the caller and never changes under later DML.
func (s *Snapshot) Row(idx int) ([]value.Datum, error) {
	if idx < 0 || idx >= s.nrows {
		return nil, fmt.Errorf("storage: row %d out of range [0,%d)", idx, s.nrows)
	}
	ch := s.chunks[idx/s.chunkSize]
	return ch.AppendRowTo(make([]value.Datum, 0, len(ch.cols)), idx%s.chunkSize), nil
}

// Range invokes fn for each chunk overlapping the global row range [lo, hi)
// (clamped to the snapshot), passing the chunk, the global index of its
// first row, and the chunk-relative sub-range [clo, chi) to visit. fn
// returning false stops the iteration. This is the vectorized scan
// primitive: morsels map onto chunk sub-ranges through it.
func (s *Snapshot) Range(lo, hi int, fn func(ch *Chunk, base, clo, chi int) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > s.nrows {
		hi = s.nrows
	}
	for i := lo; i < hi; {
		ci := i / s.chunkSize
		base := ci * s.chunkSize
		clo := i - base
		chi := s.chunks[ci].n
		if base+chi > hi {
			chi = hi - base
		}
		if !fn(s.chunks[ci], base, clo, chi) {
			return
		}
		i = base + chi
	}
}

// Gather fills rows [lo, hi) of the detached chunk dst: row i takes the
// snapshot row positions[i], or snapshot row i itself when positions is nil
// — a straight concatenation of the chunk vectors. This is the columnar
// sampling primitive: a drawn sample stays typed arrays end to end. Calls
// over disjoint ranges of one dst may run concurrently when every lo is a
// multiple of 64 (two ranges must not share a null-bitmap word).
func (s *Snapshot) Gather(dst *Chunk, positions []int, lo, hi int) {
	if positions == nil {
		s.Range(lo, hi, func(ch *Chunk, base, clo, chi int) bool {
			for c := range dst.cols {
				dst.cols[c].copyFrom(base+clo, ch.cols[c], clo, chi)
			}
			return true
		})
		return
	}
	// Column by column, so each loop is one typed array read per row and the
	// cache misses of a random draw overlap instead of queueing.
	srcs := make([]*Chunk, hi-lo)
	offs := make([]int, hi-lo)
	for i, p := range positions[lo:hi] {
		srcs[i], offs[i] = s.chunks[p/s.chunkSize], p%s.chunkSize
	}
	for c := range dst.cols {
		out := dst.cols[c]
		switch out.kind {
		case value.KindInt:
			for i, ch := range srcs {
				out.ints[lo+i] = ch.cols[c].ints[offs[i]]
			}
		case value.KindFloat:
			for i, ch := range srcs {
				out.floats[lo+i] = ch.cols[c].floats[offs[i]]
			}
		default:
			for i, ch := range srcs {
				out.strs[lo+i] = ch.cols[c].strs[offs[i]]
			}
		}
		for i, ch := range srcs {
			if ch.cols[c].Null(offs[i]) {
				out.setNull(lo + i)
			}
		}
	}
}

// GatherColumn returns one column at the given row positions as a detached
// vector: entry i is the value of snapshot row positions[i]. It is how a
// late-materialized operator reads the only columns it needs — join keys,
// group keys, aggregate arguments, a result column on its way to the wire —
// through the row positions a relation carries. Positions may repeat and come
// in any order; ascending runs (a scan's output) stay inside one chunk's
// arrays. A non-nil dst is overwritten and returned, its arrays reused: one
// scratch vector can carry every column of a result in turn.
func (s *Snapshot) GatherColumn(dst *ColumnVec, ordinal int, positions []int32) *ColumnVec {
	kind := s.schema.cols[ordinal].Kind
	if dst == nil {
		dst = newColumnVec(kind, len(positions))
		dst.resize(len(positions))
	} else {
		dst.reset(kind, len(positions))
	}
	switch kind {
	case value.KindInt:
		gatherColumn(s, ordinal, positions, dst, dst.ints, func(v *ColumnVec) []int64 { return v.ints })
	case value.KindFloat:
		gatherColumn(s, ordinal, positions, dst, dst.floats, func(v *ColumnVec) []float64 { return v.floats })
	default:
		gatherColumn(s, ordinal, positions, dst, dst.strs, func(v *ColumnVec) []string { return v.strs })
	}
	return dst
}

func gatherColumn[T any](s *Snapshot, ordinal int, positions []int32, out *ColumnVec, dst []T, arr func(*ColumnVec) []T) {
	var (
		src    []T
		nulls  []uint64
		lo, hi int // src holds snapshot rows [lo, hi)
	)
	for i, p := range positions {
		at := int(p)
		if at < lo || at >= hi {
			ci := at / s.chunkSize
			vec := s.chunks[ci].cols[ordinal]
			src, nulls = arr(vec), vec.nulls
			lo = ci * s.chunkSize
			hi = lo + len(src)
		}
		at -= lo
		dst[i] = src[at]
		if nulls[at>>6]&(1<<(uint(at)&63)) != 0 {
			out.setNull(i)
		}
	}
}

// Datum decodes the single value at (row position, column ordinal): how an
// operator reads a few values at arbitrary positions without gathering a
// column.
func (s *Snapshot) Datum(pos, ordinal int) value.Datum {
	return s.chunks[pos/s.chunkSize].cols[ordinal].Datum(pos % s.chunkSize)
}

// Scan invokes fn for every row in storage order until fn returns false.
// Each row is freshly materialized: callers may retain it without copying,
// and no lock is held during fn, so a callback may freely mutate the table
// (the scan keeps seeing the snapshot image).
func (s *Snapshot) Scan(fn func(rowIdx int, row []value.Datum) bool) {
	s.ScanRange(0, s.nrows, fn)
}

// ScanRange invokes fn for rows [lo, hi) in storage order until fn returns
// false; bounds are clamped to the snapshot's row count. Rows are freshly
// materialized per call, like Scan.
func (s *Snapshot) ScanRange(lo, hi int, fn func(rowIdx int, row []value.Datum) bool) {
	s.Range(lo, hi, func(ch *Chunk, base, clo, chi int) bool {
		for i := clo; i < chi; i++ {
			if !fn(base+i, ch.AppendRowTo(make([]value.Datum, 0, len(ch.cols)), i)) {
				return false
			}
		}
		return true
	})
}

// ColumnValues returns a copy of one column's datums in storage order.
func (s *Snapshot) ColumnValues(ordinal int) []value.Datum {
	out := make([]value.Datum, 0, s.nrows)
	for _, ch := range s.chunks {
		vec := ch.cols[ordinal]
		for i := 0; i < ch.n; i++ {
			out = append(out, vec.Datum(i))
		}
	}
	return out
}

// SizeBytes returns the exact accounted size of every chunk's column
// arrays — what a whole-table materialization (e.g. a full-table sample)
// costs in memory.
func (s *Snapshot) SizeBytes() int64 {
	var b int64
	for _, ch := range s.chunks {
		b += ch.SizeBytes()
	}
	return b
}
