// Package index provides sorted secondary indexes over storage tables.
//
// Indexes give the optimizer its access-path choice: a table scan reads
// every row, an index range scan touches only the rows matching a sargable
// predicate — which is exactly the decision that goes wrong when the
// optimizer's selectivity estimates are inaccurate, and exactly the decision
// JITS improves by supplying fresh query-specific statistics.
//
// An index is a typed sorted image of one column of one table snapshot: an
// array of (key, row position) pairs in (key, position) order — keys as
// int64, float64 or string, whichever the column stores, positions as int32
// — with the positions of NULL keys kept apart, since no probe returns them.
// The image remembers the snapshot it describes. When a caller arrives with a
// newer one, the image catches up instead of re-sorting: storage never
// writes a column vector a snapshot has captured (copy-on-write, per column),
// so a chunk whose indexed column is the same vector in both snapshots holds
// the same keys and is skipped unread, and the rest are compared position by
// position on that column. The removed and added entries that yields are
// sorted and applied to the old image in one merge into a spare buffer the
// two images swap. An advance therefore costs a scan of the indexed column in
// the chunks where it was written, a sort of the delta and a copy of the
// image — nothing at all when the DML did not touch the indexed column,
// however many rows it rewrote. Only the first use, and a delta above three
// quarters of the table (rebuildLimit), sort everything.
//
// Positions index the rows of one table image: Lookup and Range answer for
// the table as it is now and are valid until its next mutation; LookupAt and
// RangeAt answer for a snapshot the caller holds, which is what a statement
// that runs beside other sessions' DML needs — its scan reads that snapshot's
// rows. A snapshot older than the shared image is served from a second image
// brought to it aside (the same diff works between any two snapshots) and
// kept until the shared one next advances, so a statement one version behind
// neither moves the image back for everyone else nor sorts once per probe.
//
// What an index pins in memory: its entries (16 bytes a row for numeric
// keys, 24 for strings, whose bytes stay shared with the chunks), a spare of
// the same size once a first catch-up has moved entries, and the snapshot
// the image describes — so chunks the table has since replaced stay alive
// until the index is next used, when it advances and lets them go.
package index

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/storage"
	"repro/internal/value"
)

// maxRows is the limit int32 positions put on an indexed table.
const maxRows = math.MaxInt32

// Index is a sorted secondary index over one column of one table.
type Index struct {
	mu      sync.Mutex
	name    string
	table   *storage.Table
	column  string
	ordinal int

	shared image // follows the newest snapshot any caller has brought
	aside  image // at the last older snapshot asked for; nil once shared advances

	// Counters of how images came to be; only Rebuilds is public, the split
	// is for tests.
	rebuilds, fullBuilds, asideBuilds, lastMoved, lastRead int

	scratch []int32 // Range's positions before they are widened
}

// New creates an index on table.column. The index is built lazily on first
// use.
func New(name string, table *storage.Table, column string) (*Index, error) {
	ord, ok := table.Schema().Ordinal(column)
	if !ok {
		return nil, fmt.Errorf("index: table %s has no column %q", table.Name(), column)
	}
	ix := &Index{name: name, table: table, column: column, ordinal: ord}
	ix.shared = ix.newImage()
	return ix, nil
}

func (ix *Index) newImage() image {
	return newImage(ix.table.Schema().Column(ix.ordinal).Kind, ix.ordinal)
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Table returns the indexed table.
func (ix *Index) Table() *storage.Table { return ix.table }

// Column returns the indexed column name.
func (ix *Index) Column() string { return ix.column }

// Rebuilds reports how many times the shared image has moved to a newer
// snapshot, by a full sort or by catching up. Nothing in the engine charges
// for it; the repo benchmark reads it as a per-layer count.
func (ix *Index) Rebuilds() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.rebuilds
}

// imageAt returns the image of snap's rows. Caller must hold mu. The shared
// image serves a snapshot of the version it describes; a newer snapshot
// advances it. A snapshot older than the shared image — a statement still
// running on rows taken before another session's DML — is indexed aside, so
// it neither reads positions of rows it cannot see nor makes the sessions
// ahead of it rebuild back and forth.
func (ix *Index) imageAt(snap *storage.Snapshot) image {
	if snap.NumRows() > maxRows {
		panic(fmt.Sprintf("index: %s has %d rows, positions are int32", ix.table.Name(), snap.NumRows()))
	}
	held := ix.shared.snapshot()
	switch {
	case held != nil && snap.Version() == held.Version():
		return ix.shared
	case held != nil && snap.Version() < held.Version():
		if ix.aside == nil {
			ix.aside = ix.newImage()
		}
		if s := ix.aside.snapshot(); s == nil || s.Version() != snap.Version() {
			ix.aside.advance(snap)
			ix.asideBuilds++
		}
		return ix.aside
	}
	moved, read, full := ix.shared.advance(snap)
	ix.aside = nil
	ix.rebuilds++
	ix.lastMoved, ix.lastRead = moved, read
	if full {
		ix.fullBuilds++
	}
	return ix.shared
}

// Lookup returns the positions of all rows whose key equals key, in row
// order, in the table as it is now. NULL keys never match (SQL equality
// semantics).
func (ix *Index) Lookup(key value.Datum) []int { return ix.LookupAt(ix.table.Snapshot(), key) }

// LookupAt is Lookup in the table image snap holds.
func (ix *Index) LookupAt(snap *storage.Snapshot, key value.Datum) []int {
	if key.IsNull() {
		return nil
	}
	return ix.RangeAt(snap, Bound{Value: key, Inclusive: true}, Bound{Value: key, Inclusive: true})
}

// AppendLookupAt is LookupAt into the caller's buffer: the positions are
// appended to dst, which a caller probing once per row reuses.
func (ix *Index) AppendLookupAt(dst []int32, snap *storage.Snapshot, key value.Datum) []int32 {
	if key.IsNull() {
		return dst
	}
	return ix.AppendRangeAt(dst, snap, Bound{Value: key, Inclusive: true}, Bound{Value: key, Inclusive: true})
}

// Bound is one end of a range scan. Unbounded ends use Unbounded().
type Bound struct {
	Value     value.Datum
	Inclusive bool
	open      bool
}

// Unbounded returns a bound that does not constrain the scan.
func Unbounded() Bound { return Bound{open: true} }

// IsUnbounded reports whether the bound is absent.
func (b Bound) IsUnbounded() bool { return b.open }

// Range returns positions of rows with lo ≤/< key ≤/< hi, in key order, in
// the table as it is now, rows of equal key in position order. NULL keys are
// indexed but never returned: SQL comparisons with NULL are not true.
func (ix *Index) Range(lo, hi Bound) []int { return ix.RangeAt(ix.table.Snapshot(), lo, hi) }

// RangeAt is Range in the table image snap holds.
func (ix *Index) RangeAt(snap *storage.Snapshot, lo, hi Bound) []int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.scratch = ix.imageAt(snap).search(ix.scratch[:0], lo, hi)
	if len(ix.scratch) == 0 {
		return nil
	}
	out := make([]int, len(ix.scratch))
	for i, p := range ix.scratch {
		out[i] = int(p)
	}
	return out
}

// AppendRangeAt is RangeAt into the caller's buffer, as the int32 positions
// the image stores and the executor's relations carry.
func (ix *Index) AppendRangeAt(dst []int32, snap *storage.Snapshot, lo, hi Bound) []int32 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.imageAt(snap).search(dst, lo, hi)
}

// Len returns the number of indexed entries (including NULL keys).
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.imageAt(ix.table.Snapshot()).size()
}

// Set is the database's index registry: table name → column name → index.
type Set struct {
	mu      sync.RWMutex
	byTable map[string]map[string]*Index
}

// NewSet returns an empty registry.
func NewSet() *Set {
	return &Set{byTable: make(map[string]map[string]*Index)}
}

// Create builds and registers an index for table.column. Creating a second
// index on the same column is an error.
func (s *Set) Create(name string, table *storage.Table, column string) (*Index, error) {
	ix, err := New(name, table, column)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cols := s.byTable[table.Name()]
	if cols == nil {
		cols = make(map[string]*Index)
		s.byTable[table.Name()] = cols
	}
	if _, dup := cols[column]; dup {
		return nil, fmt.Errorf("index: %s.%s is already indexed", table.Name(), column)
	}
	cols[column] = ix
	return ix, nil
}

// Find returns the index on table.column, if any.
func (s *Set) Find(table, column string) (*Index, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ix, ok := s.byTable[table][column]
	return ix, ok
}

// ForTable returns the indexed column names of a table, sorted.
func (s *Set) ForTable(table string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cols := make([]string, 0, len(s.byTable[table]))
	for c := range s.byTable[table] {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}
