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
// Four things are built on the rule and nothing else is: Order and
// OrderIntFloat over bare payloads (what loops over dense arrays call),
// Datum.Compare, Datum.Key, the equality key, and the order keys (IntKey,
// FloatKey, StringKey), a payload as an integer that sorts like it, with
// KeyRange, a range of numbers as an interval of keys. SQL's
// "a comparison with NULL is not true" is the callers' business (Equal
// states it once); the order itself puts NULLs together, first.
package value

import (
	"cmp"
	"encoding/binary"
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

// The order key: a payload as a uint64 whose unsigned order is Order's, what
// an index image sorts, merges and searches on. For two ints, or two floats,
// the keys compare exactly as Order does. A string's key is only monotone: a
// smaller key means a smaller string, and equal keys decide nothing.

// IntKey is an int's order key: the sign bit flipped.
func IntKey(x int64) uint64 { return uint64(x) ^ 1<<63 }

// KeyInt is the int whose key IntKey returned.
func KeyInt(k uint64) int64 { return int64(k ^ 1<<63) }

// floatNaNKey is every NaN's key, one above +Inf's.
const floatNaNKey = 0xFFF0000000000001

// FloatKey is a float's order key. −0 becomes +0 and every NaN one key above
// +Inf; then a negative float's bits are all flipped and any other's sign
// bit is set, which puts the negatives below the rest and in reverse. It has
// no branch a compiler must keep, so a loop over a column of mixed signs
// does not mispredict.
func FloatKey(f float64) uint64 {
	b := math.Float64bits(f)
	if f == 0 {
		b = 0
	}
	if f != f {
		b = floatNaNKey &^ (1 << 63)
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// KeyFloat is a float FloatKey maps to k: the float itself, +0 for −0, a
// NaN for a NaN.
func KeyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// StringKey is a string's order key: its first 8 bytes, big-endian,
// zero-padded. "a" and "a\x00" share a key, and so does every string with a
// common 8-byte prefix.
func StringKey(s string) uint64 {
	if len(s) >= 8 {
		return binary.BigEndian.Uint64([]byte(s[:8]))
	}
	var k uint64
	for i := 0; i < len(s); i++ {
		k |= uint64(s[i]) << (56 - 8*i)
	}
	return k
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

// Bound is one end of an interval in the order above: a value and whether
// the interval includes it, or no end at all (Unbounded). A predicate's
// selected range (qgm.Predicate.Range) and an index range scan are both
// stated with it.
type Bound struct {
	Value     Datum
	Inclusive bool
	open      bool
}

// Unbounded returns the end that does not constrain the interval.
func Unbounded() Bound { return Bound{open: true} }

// IsUnbounded reports whether the end is absent.
func (b Bound) IsUnbounded() bool { return b.open }

// KeyRange returns the closed interval [klo, khi] of order keys held by the
// values of kind col — KindInt or KindFloat — that lie between lo and hi,
// whose values are numbers: a value of that kind lies between the ends
// exactly when its IntKey or FloatKey lies in the interval. Every end
// converts exactly. An excluded end moves one key inward; on an int column a
// float end rounds inward as OrderIntFloat orders; on a float column an int
// end that no float64 holds becomes the nearest float inside it; a NaN end
// sits above every number. ok is false when no value of kind col lies
// between the ends.
func KeyRange(lo, hi Bound, col Kind) (klo, khi uint64, ok bool) {
	end := floatEnd
	if col == KindInt {
		end = intEnd
	}
	klo, khi, okLo, okHi := uint64(0), uint64(math.MaxUint64), true, true
	if !lo.open {
		klo, okLo = end(lo, false)
	}
	if !hi.open {
		khi, okHi = end(hi, true)
	}
	return klo, khi, okLo && okHi && klo <= khi
}

// intEnd is the key of the least int a bounded end admits — the greatest,
// for an upper end; ok is false when it admits none.
func intEnd(b Bound, upper bool) (uint64, bool) {
	x, exact := b.Value.i, true
	if b.Value.kind == KindFloat {
		switch f := b.Value.f; {
		case f != f || f >= 1<<63: // above every int
			return math.MaxUint64, upper
		case f < -1<<63: // below every int
			return 0, !upper
		case upper:
			x = int64(math.Floor(f))
		default:
			x = int64(math.Ceil(f))
		}
		exact = float64(x) == b.Value.f
	}
	if exact && !b.Inclusive {
		switch {
		case upper && x == math.MinInt64, !upper && x == math.MaxInt64:
			return 0, false
		case upper:
			x--
		default:
			x++
		}
	}
	return IntKey(x), true
}

// floatEnd is the key of the least float a bounded end admits — the
// greatest, for an upper end; ok is false when it admits none. The float f
// nearest the end is the answer when it is the end and the end is included,
// or when it lies on the side the end admits; otherwise the answer is the
// float one key further in.
func floatEnd(b Bound, upper bool) (uint64, bool) {
	f, c := b.Value.f, 0 // c is the sign of end − f
	if b.Value.kind == KindInt {
		f = float64(b.Value.i)
		c = OrderIntFloat(b.Value.i, f)
	}
	k := FloatKey(f)
	if upper {
		if c < 0 || c == 0 && !b.Inclusive {
			k--
		}
		return k, k >= FloatKey(math.Inf(-1))
	}
	if c > 0 || c == 0 && !b.Inclusive {
		k++
	}
	return k, k <= floatNaNKey
}
