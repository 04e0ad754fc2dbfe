// Compiled predicates. A conjunction of local predicates is evaluated over
// dense column vectors: chunk by chunk into matching row positions (the
// executor's scan), at single snapshot positions (index fetches), or over a
// detached sample chunk (JITS group evaluation). Each predicate compiles
// against the column vector it meets into a typed loop for the common
// column-kind/operand-kind pairings; any other pairing (kind mismatches,
// NULL operands, IN lists) falls back to Predicate.MatchesDatum on the
// decoded datum, so the compiled form is semantically identical to evaluating
// MatchesDatum row by row — the fast paths only skip the per-row Datum boxing,
// never change the answer. Reads and writes share it: a DML WHERE finds its
// rows through AppendMatches, chunk by chunk under the table's write lock.
//
// The comparison fast paths reproduce value.Datum.Compare exactly by
// computing the same three-way outcome (including Compare's quirk that an
// incomparable float pair — NaN against anything — yields 0) and testing it
// against a per-operator bitmask, one bit per outcome {-1, 0, +1}.
package qgm

import (
	"cmp"

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

// cmp3 is Datum.Compare within one kind: for floats a NaN on either side
// compares 0, which is what a chain of < and > yields (cmp.Compare would
// order NaN first).
func cmp3[T cmp.Ordered](a, b T) int8 {
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

// typedMatcher returns the predicate over one typed array when every operand
// converts to the array's element type — a compare through the operator's
// mask, or BETWEEN as two compares — and nil otherwise.
func typedMatcher[T cmp.Ordered](p Predicate, xs []T, operand func(value.Datum) (T, bool)) func(i int) bool {
	if mask, ok := cmpMask(p.Op); ok {
		if v, ok := operand(p.Value); ok {
			return func(i int) bool { return maskHit(mask, cmp3(xs[i], v)) }
		}
	} else if p.Op == OpBetween {
		lo, okLo := operand(p.Lo)
		hi, okHi := operand(p.Hi)
		if okLo && okHi {
			return func(i int) bool { return cmp3(xs[i], lo) >= 0 && cmp3(xs[i], hi) <= 0 }
		}
	}
	return nil
}

// intAsFloatMatcher is an int column against float operands: Datum.Compare
// widens the int, so the loop does.
func intAsFloatMatcher(p Predicate, xs []int64) func(i int) bool {
	if mask, ok := cmpMask(p.Op); ok && p.Value.Kind() == value.KindFloat {
		v := p.Value.Float()
		return func(i int) bool { return maskHit(mask, cmp3(float64(xs[i]), v)) }
	}
	if p.Op == OpBetween && p.Lo.Kind() == value.KindFloat && p.Hi.Kind() == value.KindFloat {
		lo, hi := p.Lo.Float(), p.Hi.Float()
		return func(i int) bool {
			x := float64(xs[i])
			return cmp3(x, lo) >= 0 && cmp3(x, hi) <= 0
		}
	}
	return nil
}

func intOperand(d value.Datum) (int64, bool) {
	if d.Kind() == value.KindInt {
		return d.Int(), true
	}
	return 0, false
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
// semantics), checked only when the vector has nulls. An int column compares
// with int operands exactly and with float operands as float64, a float
// column with any numeric operands as float64, a string column with strings —
// Datum.Compare's rules for those pairs; every other pairing is MatchesDatum.
func (p Predicate) matcher(vec *storage.ColumnVec) func(i int) bool {
	var m func(i int) bool
	switch vec.Kind() {
	case value.KindInt:
		if m = typedMatcher(p, vec.Ints(), intOperand); m == nil {
			m = intAsFloatMatcher(p, vec.Ints())
		}
	case value.KindFloat:
		m = typedMatcher(p, vec.Floats(), value.Datum.AsFloat)
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
