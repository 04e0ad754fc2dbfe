// Compiled predicates. A conjunction of local predicates is evaluated over
// dense column vectors: chunk by chunk into matching row positions (the
// executor's scan), at single snapshot positions (index fetches), or over a
// detached sample chunk (JITS group evaluation). Each predicate compiles
// against the column vector it meets into a typed loop for the common
// column-kind/operand-kind pairings; any other pairing (kind mismatches,
// NULL operands, IN lists) falls back to Predicate.MatchesDatum on the
// decoded datum. Both are the order of internal/value — the typed loops call
// value.Order on the bare payloads where MatchesDatum calls Datum.Compare —
// so the fast paths only skip the per-row Datum boxing, never change the
// answer. Reads and writes share it: a DML WHERE finds its rows through
// AppendMatches, chunk by chunk under the table's write lock.
package qgm

import (
	"repro/internal/storage"
	"repro/internal/value"
)

// cmpMask maps a comparison operator to a bitmask over the three-way
// compare outcome: bit 0 ⇒ matches when cmp < 0, bit 1 ⇒ when cmp == 0,
// bit 2 ⇒ when cmp > 0. Equal/NotEqual piggyback on the same outcome
// because Datum.Equal is defined as Compare()==0 for non-null operands.
// BETWEEN is two compares, so it has no mask of its own.
func cmpMask(op PredOp) (uint8, bool) {
	switch op {
	case OpEQ:
		return 0b010, true
	case OpNE:
		return 0b101, true
	case OpLT:
		return 0b001, true
	case OpLE:
		return 0b011, true
	case OpGT:
		return 0b100, true
	case OpGE:
		return 0b110, true
	default:
		return 0, false
	}
}

func maskHit(mask uint8, c int) bool { return mask&(1<<uint(c+1)) != 0 }

// typedMatcher returns the predicate over one typed array when every operand
// converts to the array's element type — a compare through the operator's
// mask, or BETWEEN as two compares — and nil otherwise.
func typedMatcher[T value.Ordered](p Predicate, xs []T, operand func(value.Datum) (T, bool)) func(i int) bool {
	if mask, ok := cmpMask(p.Op); ok {
		if v, ok := operand(p.Value); ok {
			return func(i int) bool { return maskHit(mask, value.Order(xs[i], v)) }
		}
	} else if p.Op == OpBetween {
		lo, okLo := operand(p.Lo)
		hi, okHi := operand(p.Hi)
		if okLo && okHi {
			return func(i int) bool { return value.Order(xs[i], lo) >= 0 && value.Order(xs[i], hi) <= 0 }
		}
	}
	return nil
}

// intFloatMatcher is an int column against float operands, compared exactly.
func intFloatMatcher(p Predicate, xs []int64) func(i int) bool {
	if mask, ok := cmpMask(p.Op); ok && p.Value.Kind() == value.KindFloat {
		v := p.Value.Float()
		return func(i int) bool { return maskHit(mask, value.OrderIntFloat(xs[i], v)) }
	}
	if p.Op == OpBetween && p.Lo.Kind() == value.KindFloat && p.Hi.Kind() == value.KindFloat {
		lo, hi := p.Lo.Float(), p.Hi.Float()
		return func(i int) bool { return value.OrderIntFloat(xs[i], lo) >= 0 && value.OrderIntFloat(xs[i], hi) <= 0 }
	}
	return nil
}

func intOperand(d value.Datum) (int64, bool) {
	if d.Kind() == value.KindInt {
		return d.Int(), true
	}
	return 0, false
}

// floatOperand is a float operand, or an int one that some float64 holds
// exactly — the rest compare with no float as they do with the int.
func floatOperand(d value.Datum) (float64, bool) {
	f, ok := d.AsFloat()
	return f, ok && d.Compare(value.NewFloat(f)) == 0
}

func strOperand(d value.Datum) (string, bool) {
	if d.Kind() == value.KindString {
		return d.Str(), true
	}
	return "", false
}

// matcher compiles the predicate against one column vector, choosing the
// loop from the vector's own kind and the operand kinds (so table chunks and
// detached sample chunks are served alike). The closure reads the
// typed backing array directly; NULL rows never match (SQL comparison
// semantics), checked only when the vector has nulls. An int column has a
// loop for int operands and one for float operands, a float column for
// numeric operands a float64 holds, a string column for strings; every other
// pairing is MatchesDatum.
func (p Predicate) matcher(vec *storage.ColumnVec) func(i int) bool {
	var m func(i int) bool
	switch vec.Kind() {
	case value.KindInt:
		if m = typedMatcher(p, vec.Ints(), intOperand); m == nil {
			m = intFloatMatcher(p, vec.Ints())
		}
	case value.KindFloat:
		m = typedMatcher(p, vec.Floats(), floatOperand)
	case value.KindString:
		m = typedMatcher(p, vec.Strs(), strOperand)
	}
	switch {
	case m == nil:
		return func(i int) bool { return p.MatchesDatum(vec.Datum(i)) }
	case vec.HasNulls():
		return func(i int) bool { return !vec.Null(i) && m(i) }
	}
	return m
}

// AppendMatches evaluates the conjunction of preds over chunk rows [lo, hi)
// and appends base plus the offset of each matching row to dst. The first
// predicate appends; later predicates compact what it appended in place, so
// each extra conjunct only touches the survivors. It only reads its
// arguments, so parallel morsel workers may share preds.
func AppendMatches(dst []int32, preds []Predicate, ch *storage.Chunk, lo, hi, base int) []int32 {
	start := len(dst)
	if len(preds) == 0 {
		for i := lo; i < hi; i++ {
			dst = append(dst, int32(base+i))
		}
		return dst
	}
	m := preds[0].matcher(ch.Col(preds[0].Ordinal))
	for i := lo; i < hi; i++ {
		if m(i) {
			dst = append(dst, int32(i))
		}
	}
	for _, p := range preds[1:] {
		if len(dst) == start {
			break
		}
		m := p.matcher(ch.Col(p.Ordinal))
		k := start
		for _, i := range dst[start:] {
			if m(int(i)) {
				dst[k] = i
				k++
			}
		}
		dst = dst[:k]
	}
	if base != 0 {
		for k := start; k < len(dst); k++ {
			dst[k] += int32(base)
		}
	}
	return dst
}

// RowMatcher returns the conjunction of preds as a test of one row position
// of snap, for access paths that arrive at rows one at a time (index
// fetches). A chunk's matchers are compiled the first time a position lands
// in it. The returned function is for one goroutine.
func RowMatcher(preds []Predicate, snap *storage.Snapshot) func(pos int) bool {
	if len(preds) == 0 {
		return func(int) bool { return true }
	}
	size := snap.ChunkSize()
	bound := make([]func(int) bool, snap.NumChunks()*len(preds)) // chunk ci's matchers start at ci*len(preds)
	return func(pos int) bool {
		ci := pos / size
		ms := bound[ci*len(preds) : (ci+1)*len(preds)]
		if ms[0] == nil {
			for k, p := range preds {
				ms[k] = p.matcher(snap.Chunk(ci).Col(p.Ordinal))
			}
		}
		for _, m := range ms {
			if !m(pos - ci*size) {
				return false
			}
		}
		return true
	}
}
