// Key encodings. Join keys that are not a pair of int columns, group keys
// and DISTINCT rows are compared as encoded byte strings interned in a
// keyTable: one map lookup per row on a reused buffer, one string allocated
// per distinct key.
package executor

import (
	"encoding/binary"
	"math"
	"strconv"

	"repro/internal/storage"
	"repro/internal/value"
)

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

// appendJoinKeyTo appends the encoded join key of row i of the gathered key
// columns, returning ok=false on a NULL key column (SQL: NULL joins nothing).
// The hash join takes it for every key that is not a single pair of int
// columns, which are their own keys. The encoding is
// injective — two keys are byte-equal exactly when every column pair is
// equal — because each column is a tag plus a self-delimiting payload:
//
//	'n' + 8 bytes  a number exactly representable as a float64 (its bits,
//	               -0 folded into +0), so int 5 joins float 5.0
//	'i' + 8 bytes  an int64 no float64 represents (beyond ±2^53); it can
//	               equal only the same int
//	's' + uvarint length + bytes
//
// Fixed widths and the length prefix mean no separator is needed and no
// string content can run into the next column. Equality here is exact
// numeric equality, which is Datum.Equal wherever Equal is an equivalence;
// Equal compares a mixed int/float pair as floats, so beyond ±2^53 it calls
// distinct numbers equal and stops being transitive, which no key can follow.
func appendJoinKeyTo(buf []byte, cols []*storage.ColumnVec, i int) ([]byte, bool) {
	for _, col := range cols {
		switch {
		case col.Null(i):
			return buf, false
		case col.Kind() == value.KindInt:
			x := col.Ints()[i]
			if f := float64(x); f < 1<<63 && int64(f) == x {
				buf = appendFloatKey(buf, f)
			} else {
				buf = binary.BigEndian.AppendUint64(append(buf, 'i'), uint64(x))
			}
		case col.Kind() == value.KindFloat:
			buf = appendFloatKey(buf, col.Floats()[i])
		default:
			s := col.Strs()[i]
			buf = binary.AppendUvarint(append(buf, 's'), uint64(len(s)))
			buf = append(buf, s...)
		}
	}
	return buf, true
}

func appendFloatKey(buf []byte, f float64) []byte {
	switch {
	case f == 0:
		f = 0 // -0 == +0
	case f != f:
		f = math.NaN() // one NaN, whatever its payload
	}
	return binary.BigEndian.AppendUint64(append(buf, 'n'), math.Float64bits(f))
}

// appendGroupKeyDatum appends one datum's group-key encoding plus the '|'
// separator: Datum.String's spelling (byte-identical to fmt.Fprintf("%s|", d))
// except that −0 is spelled 0, so the two zeros — equal under every
// comparison — land in one group and one DISTINCT row.
func appendGroupKeyDatum(buf []byte, d value.Datum) []byte {
	switch d.Kind() {
	case value.KindNull:
		buf = append(buf, "NULL"...)
	case value.KindInt:
		buf = strconv.AppendInt(buf, d.Int(), 10)
	case value.KindFloat:
		buf = strconv.AppendFloat(buf, d.Float()+0, 'g', -1, 64) // −0 + 0 = +0
	case value.KindString:
		buf = append(buf, '\'')
		s := d.Str()
		for i := 0; i < len(s); i++ {
			if s[i] == '\'' {
				buf = append(buf, '\'', '\'')
			} else {
				buf = append(buf, s[i])
			}
		}
		buf = append(buf, '\'')
	default:
		buf = append(buf, '?')
	}
	return append(buf, '|')
}
