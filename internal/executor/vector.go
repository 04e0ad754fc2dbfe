// Vectorized scan kernels. A chunkFilter compiles a scan's predicate list
// against the table schema once, then evaluates it chunk by chunk over the
// dense column arrays, producing a selection vector of matching offsets.
// Typed fast paths cover the common column-kind/operand-kind pairings; any
// other pairing (kind mismatches, NULL operands, IN lists) falls back to
// qgm.Predicate.MatchesDatum on the decoded datum, so the compiled filter
// is semantically identical to evaluating Matches row by row — the fast
// paths only skip the per-row Datum boxing, never change the answer.
//
// The comparison fast paths reproduce value.Datum.Compare exactly by
// computing the same three-way outcome (including Compare's quirk that an
// incomparable float pair — NaN against anything — yields 0) and testing it
// against a per-operator bitmask, one bit per outcome {-1, 0, +1}.
package executor

import (
	"encoding/binary"
	"math"
	"strconv"

	"repro/internal/qgm"
	"repro/internal/storage"
	"repro/internal/value"
)

type predMode uint8

const (
	pmGeneric         predMode = iota // MatchesDatum on the decoded datum
	pmInt                             // int column, int operand: exact int64 compare
	pmIntFloat                        // int column, float operand: float compare
	pmFloat                           // float column, numeric operand: float compare
	pmStr                             // string column, string operand
	pmIntBetween                      // int column, both bounds int
	pmIntFloatBetween                 // int column, both bounds float
	pmFloatBetween                    // float column, numeric bounds
	pmStrBetween                      // string column, string bounds
)

// cmpMask maps a comparison operator to a bitmask over the three-way
// compare outcome: bit 0 ⇒ matches when cmp < 0, bit 1 ⇒ when cmp == 0,
// bit 2 ⇒ when cmp > 0. Equal/NotEqual piggyback on the same outcome
// because Datum.Equal is defined as Compare()==0 for non-null operands.
func cmpMask(op qgm.PredOp) (uint8, bool) {
	switch op {
	case qgm.OpEQ:
		return 0b010, true
	case qgm.OpNE:
		return 0b101, true
	case qgm.OpLT:
		return 0b001, true
	case qgm.OpLE:
		return 0b011, true
	case qgm.OpGT:
		return 0b100, true
	case qgm.OpGE:
		return 0b110, true
	default:
		return 0, false
	}
}

// compiledPred is one predicate resolved against the schema: the mode picks
// the typed loop, the operand fields hold pre-extracted payloads.
type compiledPred struct {
	p    qgm.Predicate
	ord  int
	mode predMode
	mask uint8 // three-way outcome mask for the compare modes

	i64      int64
	f64      float64
	str      string
	iLo, iHi int64
	fLo, fHi float64
	sLo, sHi string
}

// chunkFilter is a conjunction of compiled predicates. It is immutable
// after compileFilter and safe to share across parallel morsel workers.
type chunkFilter struct {
	preds []compiledPred
}

// compileFilter resolves preds against the schema, picking a typed fast
// path where the column kind and operand kind(s) line up and the generic
// MatchesDatum fallback everywhere else.
func compileFilter(preds []qgm.Predicate, schema *storage.Schema) *chunkFilter {
	f := &chunkFilter{preds: make([]compiledPred, len(preds))}
	for i, p := range preds {
		cp := compiledPred{p: p, ord: p.Ordinal, mode: pmGeneric}
		colKind := schema.Column(p.Ordinal).Kind
		if mask, ok := cmpMask(p.Op); ok {
			switch {
			case colKind == value.KindInt && p.Value.Kind() == value.KindInt:
				cp.mode, cp.mask, cp.i64 = pmInt, mask, p.Value.Int()
			case colKind == value.KindInt && p.Value.Kind() == value.KindFloat:
				cp.mode, cp.mask, cp.f64 = pmIntFloat, mask, p.Value.Float()
			case colKind == value.KindFloat && (p.Value.Kind() == value.KindInt || p.Value.Kind() == value.KindFloat):
				cp.mode, cp.mask = pmFloat, mask
				cp.f64, _ = p.Value.AsFloat()
			case colKind == value.KindString && p.Value.Kind() == value.KindString:
				cp.mode, cp.mask, cp.str = pmStr, mask, p.Value.Str()
			}
		} else if p.Op == qgm.OpBetween {
			lk, hk := p.Lo.Kind(), p.Hi.Kind()
			switch {
			case colKind == value.KindInt && lk == value.KindInt && hk == value.KindInt:
				cp.mode, cp.iLo, cp.iHi = pmIntBetween, p.Lo.Int(), p.Hi.Int()
			case colKind == value.KindInt && lk == value.KindFloat && hk == value.KindFloat:
				cp.mode, cp.fLo, cp.fHi = pmIntFloatBetween, p.Lo.Float(), p.Hi.Float()
			case colKind == value.KindFloat &&
				(lk == value.KindInt || lk == value.KindFloat) &&
				(hk == value.KindInt || hk == value.KindFloat):
				cp.mode = pmFloatBetween
				cp.fLo, _ = p.Lo.AsFloat()
				cp.fHi, _ = p.Hi.AsFloat()
			case colKind == value.KindString && lk == value.KindString && hk == value.KindString:
				cp.mode, cp.sLo, cp.sHi = pmStrBetween, p.Lo.Str(), p.Hi.Str()
			}
		}
		f.preds[i] = cp
	}
	return f
}

// cmpF is Datum.Compare's float arm: NaN against anything compares 0.
func cmpF(a, b float64) int8 {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpI(a, b int64) int8 {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpS(a, b string) int8 {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func maskHit(mask uint8, c int8) bool { return mask&(1<<uint8(c+1)) != 0 }

// matcher returns a row predicate bound to one chunk's column vector. The
// closure reads the typed backing array directly; NULL rows never match
// (SQL comparison semantics), checked only when the vector has nulls.
func (cp *compiledPred) matcher(ch *storage.Chunk) func(i int) bool {
	vec := ch.Col(cp.ord)
	hasNulls := vec.HasNulls()
	notNull := func(i int) bool { return !hasNulls || !vec.Null(i) }
	switch cp.mode {
	case pmInt:
		xs, v, mask := vec.Ints(), cp.i64, cp.mask
		return func(i int) bool { return notNull(i) && maskHit(mask, cmpI(xs[i], v)) }
	case pmIntFloat:
		xs, v, mask := vec.Ints(), cp.f64, cp.mask
		return func(i int) bool { return notNull(i) && maskHit(mask, cmpF(float64(xs[i]), v)) }
	case pmFloat:
		xs, v, mask := vec.Floats(), cp.f64, cp.mask
		return func(i int) bool { return notNull(i) && maskHit(mask, cmpF(xs[i], v)) }
	case pmStr:
		xs, v, mask := vec.Strs(), cp.str, cp.mask
		return func(i int) bool { return notNull(i) && maskHit(mask, cmpS(xs[i], v)) }
	case pmIntBetween:
		xs, lo, hi := vec.Ints(), cp.iLo, cp.iHi
		return func(i int) bool {
			return notNull(i) && cmpI(xs[i], lo) >= 0 && cmpI(xs[i], hi) <= 0
		}
	case pmIntFloatBetween:
		xs, lo, hi := vec.Ints(), cp.fLo, cp.fHi
		return func(i int) bool {
			if !notNull(i) {
				return false
			}
			x := float64(xs[i])
			return cmpF(x, lo) >= 0 && cmpF(x, hi) <= 0
		}
	case pmFloatBetween:
		xs, lo, hi := vec.Floats(), cp.fLo, cp.fHi
		return func(i int) bool {
			return notNull(i) && cmpF(xs[i], lo) >= 0 && cmpF(xs[i], hi) <= 0
		}
	case pmStrBetween:
		xs, lo, hi := vec.Strs(), cp.sLo, cp.sHi
		return func(i int) bool {
			return notNull(i) && xs[i] >= lo && xs[i] <= hi
		}
	default:
		p := cp.p
		return func(i int) bool { return p.MatchesDatum(vec.Datum(i)) }
	}
}

// selectRange evaluates the filter over chunk rows [lo, hi) and returns the
// matching offsets, reusing sel's backing array. The first predicate fills
// the selection vector; later predicates compact it in place, so each extra
// conjunct only touches the survivors.
func (f *chunkFilter) selectRange(ch *storage.Chunk, lo, hi int, sel []int) []int {
	sel = sel[:0]
	if len(f.preds) == 0 {
		for i := lo; i < hi; i++ {
			sel = append(sel, i)
		}
		return sel
	}
	m := f.preds[0].matcher(ch)
	for i := lo; i < hi; i++ {
		if m(i) {
			sel = append(sel, i)
		}
	}
	for pi := 1; pi < len(f.preds) && len(sel) > 0; pi++ {
		m := f.preds[pi].matcher(ch)
		k := 0
		for _, i := range sel {
			if m(i) {
				sel[k] = i
				k++
			}
		}
		sel = sel[:k]
	}
	return sel
}

// appendJoinKeyTo appends the encoded join key for row's cols, returning
// ok=false on a NULL key column (SQL: NULL joins nothing). The encoding is
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
func appendJoinKeyTo(buf []byte, row []value.Datum, cols []int) ([]byte, bool) {
	for _, c := range cols {
		switch d := row[c]; d.Kind() {
		case value.KindNull:
			return buf, false
		case value.KindInt:
			i := d.Int()
			if f := float64(i); f < 1<<63 && int64(f) == i {
				buf = appendFloatKey(buf, f)
			} else {
				buf = binary.BigEndian.AppendUint64(append(buf, 'i'), uint64(i))
			}
		case value.KindFloat:
			buf = appendFloatKey(buf, d.Float())
		default:
			s := d.Str()
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
// separator — byte-identical to fmt.Fprintf("%s|", d) (Datum.String), so
// grouped results and DISTINCT dedup behave exactly as before.
func appendGroupKeyDatum(buf []byte, d value.Datum) []byte {
	switch d.Kind() {
	case value.KindNull:
		buf = append(buf, "NULL"...)
	case value.KindInt:
		buf = strconv.AppendInt(buf, d.Int(), 10)
	case value.KindFloat:
		buf = strconv.AppendFloat(buf, d.Float(), 'g', -1, 64)
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
