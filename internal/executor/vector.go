// Keyed rows. Join keys that are not a pair of int columns, group keys and
// DISTINCT rows are compared as the bytes of their columns' value.Keys,
// interned in a keyTable: one map lookup per row on a reused buffer, one
// string allocated per distinct key.
package executor

import "repro/internal/storage"

// keyTable numbers distinct encoded keys in order of first appearance.
type keyTable struct {
	ids  map[string]int32
	keys []string // by id
}

func newKeyTable() *keyTable { return &keyTable{ids: make(map[string]int32)} }

// intern returns key's id, assigning the next one when key is new. The
// lookup does not allocate; only a new key is copied.
func (t *keyTable) intern(key []byte) (id int32, fresh bool) {
	if id, ok := t.ids[string(key)]; ok {
		return id, false
	}
	return t.internString(string(key))
}

func (t *keyTable) internString(key string) (id int32, fresh bool) {
	if id, ok := t.ids[key]; ok {
		return id, false
	}
	id = int32(len(t.keys))
	t.ids[key] = id
	t.keys = append(t.keys, key)
	return id, true
}

// find looks key up without adding it; safe from several goroutines once
// the table is no longer written.
func (t *keyTable) find(key []byte) (int32, bool) {
	id, ok := t.ids[string(key)]
	return id, ok
}

// appendJoinKeyTo appends the join key of row i of the gathered key columns
// — each column's value.Key, which delimits itself, so two keys are
// byte-equal exactly when every column pair compares equal — returning
// ok=false on a NULL key column (SQL: NULL joins nothing). The hash join takes
// it for every key that is not a single pair of int columns, which are their
// own keys.
func appendJoinKeyTo(buf []byte, cols []*storage.ColumnVec, i int) ([]byte, bool) {
	for _, col := range cols {
		if col.Null(i) {
			return buf, false
		}
		buf = col.Datum(i).Key().AppendTo(buf)
	}
	return buf, true
}
