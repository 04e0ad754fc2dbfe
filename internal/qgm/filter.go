// Compiled predicates. A conjunction of local predicates is evaluated over
// dense column vectors: chunk by chunk into matching row positions (the
// executor's scan), at single snapshot positions (index fetches), or over a
// detached sample chunk (JITS group evaluation). Each predicate compiles
// against the column vector it meets into a kernel: the range it selects
// (Predicate.Range, what index probes use too) as one closed interval of
// order keys on an int or float column — a row matches when key(x) − lo ≤
// hi − lo as unsigned integers, NE being the complement of EQ's interval —
// and one string compare per row on a string column. Any other pairing (IN
// lists, a number against a string column or a string against a number
// column) falls back to Predicate.MatchesDatum on the decoded datum. Keys
// and compares are the order of internal/value, so a kernel only skips the
// per-row Datum boxing, never changes the answer. A kernel filters a list of
// row positions in place with one typed loop per column kind and no call per
// row. Reads and writes share it: a DML WHERE finds its rows through
// AppendMatches, chunk by chunk under the table's write lock.
package qgm

import (
	"strings"

	"repro/internal/storage"
	"repro/internal/value"
)

// loop names the typed loop a kernel runs.
type loop uint8

const (
	loopNone       loop = iota // nothing matches: the range is empty or an operand NULL
	loopInt                    // IntKey(x) − lo ≤ w
	loopFloat                  // FloatKey(x) − lo ≤ w
	loopStrEQ                  // x == s
	loopStrNE                  // x != s
	loopStrCmp                 // the outcome of strings.Compare(x, s) is in mask
	loopStrBetween             // s ≤ x ≤ t
	loopDatum                  // MatchesDatum on the decoded value
)

// kernel is one predicate compiled against one column vector.
type kernel struct {
	loop  loop
	nulls bool  // the vector has NULLs, which never match
	mask  uint8 // loopStrCmp's outcomes
	vec   *storage.ColumnVec
	lo, w uint64     // the numeric loops' interval of keys, [lo, lo+w] modulo 2^64
	s, t  string     // the string loops' operands
	p     *Predicate // loopDatum's predicate
}

// cmpMask maps a comparison operator to a bitmask over the three-way
// compare outcome: bit 0 ⇒ matches when cmp < 0, bit 1 ⇒ when cmp == 0,
// bit 2 ⇒ when cmp > 0.
func cmpMask(op PredOp) uint8 {
	return [...]uint8{OpLT: 0b001, OpLE: 0b011, OpGT: 0b100, OpGE: 0b110}[op]
}

// compileHook, when set, sees every kernel compiled; tests count with it.
var compileHook func(loop)

// compile builds p's kernel over vec, choosing the loop from the vector's
// own kind and the operand kinds (so table chunks and detached sample chunks
// are served alike). NE compiles from EQ's range.
func compile(p *Predicate, vec *storage.ColumnVec) kernel {
	k := kernel{loop: loopDatum, vec: vec, p: p}
	op := p.Op
	if op == OpNE {
		op = OpEQ
	}
	r, ok := Predicate{Op: op, Value: p.Value, Lo: p.Lo, Hi: p.Hi}.Range()
	str := vec.Kind() == value.KindString
	for _, b := range [2]value.Bound{r.Lo, r.Hi} {
		switch {
		case !ok || b.IsUnbounded():
		case b.Value.IsNull():
			k.loop = loopNone
		case (b.Value.Kind() == value.KindString) != str:
			ok = false // a number against strings, or a string against numbers
		}
	}
	switch kind := vec.Kind(); {
	case !ok || k.loop == loopNone:
	case str:
		k.onStrings(p)
	case kind == value.KindInt || kind == value.KindFloat:
		k.onNumbers(r, p.Op == OpNE, kind)
	}
	k.nulls = k.loop != loopNone && k.loop != loopDatum && vec.HasNulls()
	if compileHook != nil {
		compileHook(k.loop)
	}
	return k
}

// onNumbers compiles a range of numbers, or its complement, on an int or
// float column to an interval of keys.
func (k *kernel) onNumbers(r Range, complement bool, col value.Kind) {
	k.loop = loopInt
	if col == value.KindFloat {
		k.loop = loopFloat
	}
	lo, hi, some := value.KeyRange(r.Lo, r.Hi, col)
	switch {
	case complement && !some: // x <> v where no x equals v: every row
		k.lo, k.w = 0, ^uint64(0)
	case complement: // [hi+1, lo−1], wrapping past the top key
		k.lo, k.w = hi+1, lo-hi-2
	case some:
		k.lo, k.w = lo, hi-lo
	default:
		k.loop = loopNone
	}
}

// onStrings compiles a comparison of strings on a string column.
func (k *kernel) onStrings(p *Predicate) {
	switch p.Op {
	case OpEQ:
		k.loop, k.s = loopStrEQ, p.Value.Str()
	case OpNE:
		k.loop, k.s = loopStrNE, p.Value.Str()
	case OpBetween:
		k.loop, k.s, k.t = loopStrBetween, p.Lo.Str(), p.Hi.Str()
	default:
		k.loop, k.s, k.mask = loopStrCmp, p.Value.Str(), cmpMask(p.Op)
	}
}

// filter compacts pos — row offsets into the kernel's vector — to those
// whose rows match, in order, and returns how many there are. Each loop
// writes every position and advances past the ones that match, so a match
// costs no branch.
func (k *kernel) filter(pos []int32) int {
	n := 0
	switch k.loop {
	case loopInt:
		xs, lo, w := k.vec.Ints(), k.lo, k.w
		for _, i := range pos {
			pos[n] = i
			if value.IntKey(xs[i])-lo <= w {
				n++
			}
		}
	case loopFloat:
		xs, lo, w := k.vec.Floats(), k.lo, k.w
		for _, i := range pos {
			pos[n] = i
			if value.FloatKey(xs[i])-lo <= w {
				n++
			}
		}
	case loopStrEQ:
		xs, s := k.vec.Strs(), k.s
		for _, i := range pos {
			pos[n] = i
			if xs[i] == s {
				n++
			}
		}
	case loopStrNE:
		xs, s := k.vec.Strs(), k.s
		for _, i := range pos {
			pos[n] = i
			if xs[i] != s {
				n++
			}
		}
	case loopStrCmp:
		xs, s, mask := k.vec.Strs(), k.s, k.mask
		for _, i := range pos {
			pos[n] = i
			if mask>>uint(strings.Compare(xs[i], s)+1)&1 != 0 {
				n++
			}
		}
	case loopStrBetween:
		xs, s, t := k.vec.Strs(), k.s, k.t
		for _, i := range pos {
			pos[n] = i
			if x := xs[i]; x >= s && x <= t {
				n++
			}
		}
	case loopDatum:
		for _, i := range pos {
			pos[n] = i
			if k.p.matches(k.vec.Datum(int(i))) {
				n++
			}
		}
	}
	if k.nulls {
		m := 0
		for _, i := range pos[:n] {
			pos[m] = i
			if !k.vec.Null(int(i)) {
				m++
			}
		}
		n = m
	}
	return n
}

// filterBlock is how many row offsets AppendMatches gives the first
// predicate's kernel at once, from a buffer on the stack. Blocks of 64,
// 256 and 1024 offsets were within noise of one another on
// BenchmarkAppendMatches.
const filterBlock = 256

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
	k := compile(&preds[0], ch.Col(preds[0].Ordinal))
	var block [filterBlock]int32
	for b := lo; b < hi; b += filterBlock {
		pos := block[:min(filterBlock, hi-b)]
		for j := range pos {
			pos[j] = int32(b + j)
		}
		dst = append(dst, pos[:k.filter(pos)]...)
	}
	for pi := 1; pi < len(preds) && len(dst) > start; pi++ {
		k := compile(&preds[pi], ch.Col(preds[pi].Ordinal))
		dst = dst[:start+k.filter(dst[start:])]
	}
	if base != 0 {
		for j := start; j < len(dst); j++ {
			dst[j] += int32(base)
		}
	}
	return dst
}

// RowMatcher returns the conjunction of preds as a test of one row position
// of snap, for access paths that arrive at rows one at a time (index
// fetches). A chunk's kernels are compiled the first time a position lands
// in it, and only the chunks a probe touches hold any. The returned function
// is for one goroutine.
func RowMatcher(preds []Predicate, snap *storage.Snapshot) func(pos int) bool {
	if len(preds) == 0 {
		return func(int) bool { return true }
	}
	size, np := snap.ChunkSize(), len(preds)
	var ks []kernel
	at := make([]int32, snap.NumChunks()) // chunk ci's kernels are ks[(at[ci]-1)*np:][:np]; 0 until compiled
	return func(pos int) bool {
		ci := pos / size
		if at[ci] == 0 {
			ch := snap.Chunk(ci)
			for pi := range preds {
				ks = append(ks, compile(&preds[pi], ch.Col(preds[pi].Ordinal)))
			}
			at[ci] = int32(len(ks) / np)
		}
		one := [1]int32{int32(pos - ci*size)}
		for k := (int(at[ci]) - 1) * np; k < int(at[ci])*np; k++ {
			if ks[k].filter(one[:]) == 0 {
				return false
			}
		}
		return true
	}
}
