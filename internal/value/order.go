// The order of values. Everything in the engine that compares two values —
// predicates, joins, grouping, DISTINCT, ORDER BY, MIN/MAX, index images,
// distinct counts — derives from the one rule stated here:
//
//	NULL < numbers < strings;
//	numbers by exact numeric value: an int against a float is compared
//	exactly, not through float64(i); −0 = +0; NaN, whatever its payload,
//	equals itself and sorts after every other number;
//	strings bytewise.
//
// Three things are built on the rule and nothing else is: Order and
// OrderIntFloat over bare payloads (what loops over dense arrays call),
// Datum.Compare, and Datum.Key, the equality key. SQL's "a comparison with
// NULL is not true" is the callers' business (Equal states it once); the
// order itself puts NULLs together, first.
package value

import (
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"math"
)

// Ordered is the payload types a non-NULL datum holds.
type Ordered interface{ int64 | float64 | string }

// Order is the three-way comparison of two payloads of one kind: −1, 0 or
// +1. Neither below nor above is equal, or a float pair with a NaN in it;
// NaN is tested as x != x, which compiles to nothing for ints and strings.
func Order[T Ordered](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a != a && b != b:
		return 0
	case a != a:
		return 1
	case b != b:
		return -1
	}
	return 0
}

// OrderIntFloat is Order of an int against a float, by exact value. Rounding
// i to the nearest float64 is monotone, so wherever the rounded comparison is
// strict it is right; where it ties, f is an integer no further than 2^63
// from zero and the ints decide.
func OrderIntFloat(i int64, f float64) int {
	switch x := float64(i); {
	case x < f:
		return -1
	case x > f:
		return 1
	case x != f: // f is NaN
		return -1
	case f == 1<<63: // i rounded up to 2^63, which no int64 reaches
		return -1
	}
	return Order(i, int64(f))
}

// Compare returns -1, 0 or +1 ordering d before, equal to, or after other
// under the package's order. It is a total order: reflexive, antisymmetric
// and transitive over every pair of datums, NaN and integers past ±2^53
// included.
func (d Datum) Compare(other Datum) int {
	switch {
	case d.kind == KindInt && other.kind == KindFloat:
		return OrderIntFloat(d.i, other.f)
	case d.kind == KindFloat && other.kind == KindInt:
		return -OrderIntFloat(other.i, d.f)
	case d.kind != other.kind: // NULL < numbers < strings is the kinds' own order
		return cmp.Compare(d.kind, other.kind)
	}
	switch d.kind {
	case KindInt:
		return Order(d.i, other.i)
	case KindFloat:
		return Order(d.f, other.f)
	case KindString:
		return Order(d.s, other.s)
	}
	return 0
}

// Equal reports whether the datums compare equal. NULL equals nothing,
// including NULL, matching SQL comparison semantics (use Compare for the
// total order used by sorting, where NULLs group together).
func (d Datum) Equal(other Datum) bool {
	return d.kind != KindNull && other.kind != KindNull && d.Compare(other) == 0
}

// Key is a datum's equality key: two datums have the same Key exactly when
// Compare calls them equal (NULL's key is the zero Key, so NULLs group). A
// Key is comparable — a map key as it is — and AppendTo spells it as bytes
// for keys of several columns.
type Key struct {
	kind Kind   // KindInt for every number some int64 holds, KindFloat for the rest
	bits uint64 // the int64, or the float64's bits
	str  string
}

// Key returns the datum's equality key. A datum that is not a float is its
// own key (the payloads it does not use are zero).
func (d Datum) Key() Key {
	if d.kind == KindFloat {
		return floatKey(d.f)
	}
	return Key{kind: d.kind, bits: uint64(d.i), str: d.s}
}

func floatKey(f float64) Key {
	if i := int64(f); f >= -1<<63 && f < 1<<63 && float64(i) == f {
		return Key{kind: KindInt, bits: uint64(i)} // −0 among them
	}
	if f != f {
		f = math.NaN() // one NaN, whatever its payload
	}
	return Key{kind: KindFloat, bits: math.Float64bits(f)}
}

// AppendTo appends the key as bytes: the kind, then 8 bytes for a number or a
// length-prefixed string. Every key delimits itself, so the concatenation of
// several columns' keys is equal exactly when every column's key is.
func (k Key) AppendTo(buf []byte) []byte {
	buf = append(buf, byte(k.kind))
	switch k.kind {
	case KindInt, KindFloat:
		buf = binary.BigEndian.AppendUint64(buf, k.bits)
	case KindString:
		buf = append(binary.AppendUvarint(buf, uint64(len(k.str))), k.str...)
	}
	return buf
}

// Hash returns 64 bits of the key whose top bits are well mixed, for callers
// that keep their own hash table. It is stable within a process only.
func (k Key) Hash() uint64 {
	if k.kind == KindString {
		return maphash.String(hashSeed, k.str)
	}
	// A short fraction's float64 varies in its high bits only: fold them down.
	return (k.bits ^ k.bits>>32) * 0x9E3779B97F4A7C15
}

var hashSeed = maphash.MakeSeed()
