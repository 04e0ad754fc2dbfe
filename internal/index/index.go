// Package index provides sorted secondary indexes over storage tables.
//
// Indexes give the optimizer its access-path choice: a table scan reads
// every row, an index range scan touches only the rows matching a sargable
// predicate — which is exactly the decision that goes wrong when the
// optimizer's selectivity estimates are inaccurate, and exactly the decision
// JITS improves by supplying fresh query-specific statistics.
//
// An index is a sorted array of (key, row position) pairs rebuilt lazily
// whenever the underlying table's version changes. Positions index the rows
// of one table image: Lookup and Range answer for the table as it is now
// and are valid until its next mutation; LookupAt and RangeAt answer for a
// snapshot the caller holds, which is what a statement that runs beside
// other sessions' DML needs — its scan reads that snapshot's rows.
package index

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/storage"
	"repro/internal/value"
)

type entry struct {
	key value.Datum
	row int
}

// Index is a sorted secondary index over one column of one table.
type Index struct {
	mu      sync.Mutex
	name    string
	table   *storage.Table
	column  string
	ordinal int

	builtVersion uint64
	built        bool
	entries      []entry
	rebuilds     int
}

// New creates an index on table.column. The index is built lazily on first
// use.
func New(name string, table *storage.Table, column string) (*Index, error) {
	ord, ok := table.Schema().Ordinal(column)
	if !ok {
		return nil, fmt.Errorf("index: table %s has no column %q", table.Name(), column)
	}
	return &Index{name: name, table: table, column: column, ordinal: ord}, nil
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Table returns the indexed table.
func (ix *Index) Table() *storage.Table { return ix.table }

// Column returns the indexed column name.
func (ix *Index) Column() string { return ix.column }

// Rebuilds reports how many times the index has been (re)built; the cost
// model charges maintenance through this.
func (ix *Index) Rebuilds() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.rebuilds
}

// entriesAt returns the sorted entries of snap's table image. Caller must
// hold mu. The cached entries serve a snapshot of the version they were built
// from; a newer snapshot rebuilds them. A snapshot older than the cache — a
// statement still running on an image taken before another session's DML —
// is indexed aside, so it neither reads positions of rows it cannot see nor
// makes the sessions ahead of it rebuild back and forth.
func (ix *Index) entriesAt(snap *storage.Snapshot) []entry {
	if ix.built && snap.Version() == ix.builtVersion {
		return ix.entries
	}
	if ix.built && snap.Version() < ix.builtVersion {
		return ix.sorted(nil, snap)
	}
	ix.entries = ix.sorted(ix.entries[:0], snap)
	ix.builtVersion = snap.Version()
	ix.built = true
	ix.rebuilds++
	return ix.entries
}

// sorted appends snap's (key, position) pairs to entries in key order.
func (ix *Index) sorted(entries []entry, snap *storage.Snapshot) []entry {
	// Stream the indexed column's chunk vectors directly — the rebuild
	// touches one column array, not materialized rows.
	base := 0
	for ci := 0; ci < snap.NumChunks(); ci++ {
		ch := snap.Chunk(ci)
		vec := ch.Col(ix.ordinal)
		for i := 0; i < ch.Rows(); i++ {
			entries = append(entries, entry{key: vec.Datum(i), row: base + i})
		}
		base += ch.Rows()
	}
	sort.SliceStable(entries, func(i, j int) bool {
		c := entries[i].key.Compare(entries[j].key)
		if c != 0 {
			return c < 0
		}
		return entries[i].row < entries[j].row
	})
	return entries
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
// the table as it is now. NULL keys are stored at the front of the index
// but are never returned: SQL comparisons with NULL are not true.
func (ix *Index) Range(lo, hi Bound) []int { return ix.RangeAt(ix.table.Snapshot(), lo, hi) }

// RangeAt is Range in the table image snap holds.
func (ix *Index) RangeAt(snap *storage.Snapshot, lo, hi Bound) []int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	entries := ix.entriesAt(snap)

	n := len(entries)
	// Rows with NULL keys occupy a prefix (NULL sorts first); skip them.
	firstNonNull := sort.Search(n, func(i int) bool { return !entries[i].key.IsNull() })

	start := firstNonNull
	if !lo.IsUnbounded() {
		start = sort.Search(n, func(i int) bool {
			c := entries[i].key.Compare(lo.Value)
			if lo.Inclusive {
				return c >= 0
			}
			return c > 0
		})
		if start < firstNonNull {
			start = firstNonNull
		}
	}
	end := n
	if !hi.IsUnbounded() {
		end = sort.Search(n, func(i int) bool {
			c := entries[i].key.Compare(hi.Value)
			if hi.Inclusive {
				return c > 0
			}
			return c >= 0
		})
	}
	if start >= end {
		return nil
	}
	out := make([]int, 0, end-start)
	for _, e := range entries[start:end] {
		out = append(out, e.row)
	}
	return out
}

// Len returns the number of indexed entries (including NULL keys).
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.entriesAt(ix.table.Snapshot()))
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
