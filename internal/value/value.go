// Package value defines the typed datum model shared by every layer of the
// engine: storage rows, predicate constants, histogram coordinates and
// optimizer estimates all traffic in Datum values.
//
// A Datum is a small immutable value of one of four kinds: NULL, 64-bit
// integer, 64-bit float, or string. How two datums compare — the one order
// and the one equality every operator, index and statistic uses — is
// order.go: Compare, the typed Order the dense-array loops call, and Key.
// Go's own == on a Datum is not that equality (it tells 5 from 5.0 and a NaN
// from itself); nothing keys a map on a Datum.
//
// For histogram interpolation the package provides an order-preserving
// mapping from any datum to a float64 coordinate (Coord). Categorical and
// character data are mapped through a prefix encoding so that range
// arithmetic — bucket widths, boundary distances — is meaningful for them
// too, exactly as the paper prescribes ("categorical and character data
// types can be represented as numerical values using a mapping function to
// allow for interpolation").
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Datum.
type Kind uint8

// The supported datum kinds, in the order Compare puts them: NULL first,
// then the two numeric kinds (which compare with each other by value), then
// strings.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns the lowercase SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Datum is one typed value. The zero Datum is NULL.
type Datum struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null is the SQL NULL datum.
var Null = Datum{}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return Datum{kind: KindInt, i: v} }

// NewFloat returns a float datum.
func NewFloat(v float64) Datum { return Datum{kind: KindFloat, f: v} }

// NewString returns a string datum.
func NewString(v string) Datum { return Datum{kind: KindString, s: v} }

// NewBool returns the engine's boolean encoding: integers 0 and 1.
func NewBool(v bool) Datum {
	if v {
		return NewInt(1)
	}
	return NewInt(0)
}

// Kind reports the datum's kind.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether the datum is NULL.
func (d Datum) IsNull() bool { return d.kind == KindNull }

// Int returns the integer payload; it panics when the kind is not KindInt.
func (d Datum) Int() int64 {
	if d.kind != KindInt {
		panic(fmt.Sprintf("value: Int() on %s datum", d.kind))
	}
	return d.i
}

// Float returns the float payload; it panics when the kind is not KindFloat.
func (d Datum) Float() float64 {
	if d.kind != KindFloat {
		panic(fmt.Sprintf("value: Float() on %s datum", d.kind))
	}
	return d.f
}

// Str returns the string payload; it panics when the kind is not KindString.
func (d Datum) Str() string {
	if d.kind != KindString {
		panic(fmt.Sprintf("value: Str() on %s datum", d.kind))
	}
	return d.s
}

// AsFloat converts numeric datums to float64. Strings and NULL report ok=false.
func (d Datum) AsFloat() (v float64, ok bool) {
	switch d.kind {
	case KindInt:
		return float64(d.i), true
	case KindFloat:
		return d.f, true
	default:
		return 0, false
	}
}

// String renders the datum for display and plan explanation.
func (d Datum) String() string {
	var buf [32]byte
	return string(d.AppendText(buf[:0]))
}

// AppendText appends the datum's display text to dst: NULL, the shortest
// decimal of a number, a string in single quotes with quotes doubled.
// Predicate text, plan text and statistic names are built from it.
func (d Datum) AppendText(dst []byte) []byte {
	switch d.kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, d.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, d.f, 'g', -1, 64)
	case KindString:
		dst = append(dst, '\'')
		for s := d.s; ; {
			i := strings.IndexByte(s, '\'')
			if i < 0 {
				dst = append(dst, s...)
				break
			}
			dst = append(dst, s[:i+1]...)
			dst = append(dst, '\'')
			s = s[i+1:]
		}
		return append(dst, '\'')
	default:
		return append(dst, '?')
	}
}

// Coord maps the datum onto the real line preserving order within its kind.
//
// Integers and floats map to their numeric value. Strings map through a
// 6-byte big-endian prefix packed into a float64, so lexicographic order is
// preserved for the first six bytes — sufficient for histogram bucket
// arithmetic over categorical columns. NULL maps to -Inf so it always lands
// in the leftmost bucket.
func (d Datum) Coord() float64 {
	switch d.kind {
	case KindNull:
		return math.Inf(-1)
	case KindInt:
		return float64(d.i)
	case KindFloat:
		return d.f
	case KindString:
		return StringCoord(d.s)
	default:
		return 0
	}
}

// Finite reports whether the datum has a place on the coordinate line: it is
// not NULL, NaN or ±Inf. Statistics — sampled column domains, catalog
// min/max, histogram coordinates — range over finite values only; a value
// that is not finite counts toward cardinality and, unless NULL, toward the
// number of distinct values, and toward nothing else.
func (d Datum) Finite() bool {
	return d.kind != KindNull && (d.kind != KindFloat || d.f-d.f == 0)
}

// StringCoord is the order-preserving string→float mapping used by Coord.
// It packs up to 6 leading bytes big-endian into a 48-bit integer and
// converts to float64. Forty-eight bits fit exactly in a float64 mantissa,
// so distinct prefixes map to distinct coordinates and adjacent coordinates
// differ by at least 1 — which lets histogram code form equality boxes as
// [coord, coord+1). Ties beyond the 6th byte collapse to the same
// coordinate, which only costs histogram resolution, never correctness
// (exact predicate evaluation always uses the datum itself).
func StringCoord(s string) float64 {
	var packed uint64
	for i := 0; i < 6; i++ {
		packed <<= 8
		if i < len(s) {
			packed |= uint64(s[i])
		}
	}
	return float64(packed)
}

// ParseLiteral converts a SQL literal text into a Datum. Quoted forms are
// handled by the lexer; this accepts the raw payload plus a hint.
func ParseLiteral(text string, isString bool) (Datum, error) {
	if isString {
		return NewString(text), nil
	}
	if strings.EqualFold(text, "null") {
		return Null, nil
	}
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return NewInt(i), nil
	}
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return NewFloat(f), nil
	}
	return Null, fmt.Errorf("value: cannot parse literal %q", text)
}
