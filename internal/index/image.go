package index

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/storage"
	"repro/internal/value"
)

// rebuildLimit is the delta — removed plus added entries, so a key changed in
// place counts twice — past which an advance stops diffing and re-sorts: ¾ of
// the rows. It is a constant, not a knob, because the result is the same
// either way, and it sits where the two costs were measured to cross
// (BenchmarkIndexAdvance, delta-*): at 10k and 43k rows, int and string keys,
// merging a delta of ⅓ of the rows takes 0.35–0.4 of a full sort, ½ 0.6–0.65,
// ¾ 0.85–0.97, and a delta as long as the table 1.05–1.3 — the merge is O(n)
// moves plus a sort of the delta, the rebuild a sort of everything. The bound
// also caps the scratch the delta lists hold (¾ of an image plus one chunk).
func rebuildLimit(rows int) int { return rows - rows/4 }

// image is the sorted image of one column of one table snapshot. Its one
// implementation is typed[K]; the interface only erases the key type.
type image interface {
	// snapshot returns the table image the entries describe, nil before the
	// first build.
	snapshot() *storage.Snapshot
	// advance brings the image to another snapshot of the same table —
	// newer or older, the diff reads two immutable images — and reports how
	// many entries it removed plus added and how many chunks it read to find
	// them, or full when it sorted everything instead.
	advance(to *storage.Snapshot) (moved, read int, full bool)
	// search appends to dst the positions of rows with lo ≤/< key ≤/< hi in
	// key order, ties by position; NULL keys never match.
	search(dst []int32, lo, hi value.Bound) []int32
	// size counts the entries, NULL keys included.
	size() int
}

// entries are index entries as parallel arrays: each entry's order key
// (value.IntKey, FloatKey or StringKey), its row position and, in a string
// image only, the string, since equal string keys decide nothing. Entries
// are kept in (key, string, row) order — a total order, a row occurs once.
type entries[K value.Ordered] struct {
	keys []uint64
	rows []int32
	strs []K // nil in a numeric image
}

func (e entries[K]) len() int { return len(e.keys) }

func (e entries[K]) slice(i, j int) entries[K] {
	s := entries[K]{keys: e.keys[i:j], rows: e.rows[i:j]}
	if e.strs != nil {
		s.strs = e.strs[i:j]
	}
	return s
}

func (e *entries[K]) truncate() {
	e.keys, e.rows = e.keys[:0], e.rows[:0]
	if e.strs != nil {
		e.strs = e.strs[:0]
	}
}

func (e entries[K]) swap(i, j int) {
	e.keys[i], e.keys[j] = e.keys[j], e.keys[i]
	e.rows[i], e.rows[j] = e.rows[j], e.rows[i]
	if e.strs != nil {
		e.strs[i], e.strs[j] = e.strs[j], e.strs[i]
	}
}

// appendRange appends src[i:j] to e.
func (e *entries[K]) appendRange(src *entries[K], i, j int) {
	e.keys = append(e.keys, src.keys[i:j]...)
	e.rows = append(e.rows, src.rows[i:j]...)
	if src.strs != nil {
		e.strs = append(e.strs, src.strs[i:j]...)
	}
}

// typed is the image for one key type. Keys are read straight from the
// chunks' dense arrays; rows with a NULL key are kept apart from the sorted
// entries, as a list of positions, because no probe ever returns them.
type typed[K value.Ordered] struct {
	kind    value.Kind // of the column, and of the bounds that compare as keys
	ordinal int
	exact   bool                               // two keys compare as their payloads do: numeric images
	vals    func(*storage.ColumnVec) []K       // the column's dense array
	keyOf   func(K) uint64                     // value.IntKey, FloatKey or StringKey
	val     func(value.Datum) K                // a bound of the column's kind as a payload
	datum   func(*entries[K], int) value.Datum // an entry as a Datum, for every other bound
	paths   *sortPaths                         // the owning index's tally

	snap  *storage.Snapshot
	nulls []int32    // positions of NULL keys, ascending
	ents  entries[K] // non-NULL keys

	// Reused across advances: the merge targets that become nulls and ents
	// (the spare is also the delta sort's scratch), and the delta lists of
	// the last diff.
	spareNulls        []int32
	spare             entries[K]
	nullsOut, nullsIn []int32
	removed, added    entries[K]
}

// sortPaths counts the sorts that went past a scatter of a build and an
// insertion sort, for tests: delta lists scattered on a digit, buckets
// partitioned in place, and runs of string ties sorted on their next bytes.
type sortPaths struct{ scattered, inPlace, stringTies int }

func newImage(kind value.Kind, ordinal int, paths *sortPaths) image {
	switch kind {
	case value.KindInt:
		return &typed[int64]{kind: kind, ordinal: ordinal, paths: paths, exact: true,
			vals: (*storage.ColumnVec).Ints, keyOf: value.IntKey, val: value.Datum.Int,
			datum: func(e *entries[int64], i int) value.Datum { return value.NewInt(value.KeyInt(e.keys[i])) }}
	case value.KindFloat:
		return &typed[float64]{kind: kind, ordinal: ordinal, paths: paths, exact: true,
			vals: (*storage.ColumnVec).Floats, keyOf: value.FloatKey, val: value.Datum.Float,
			datum: func(e *entries[float64], i int) value.Datum { return value.NewFloat(value.KeyFloat(e.keys[i])) }}
	default: // storage keeps every other kind in the string array
		return &typed[string]{kind: value.KindString, ordinal: ordinal, paths: paths,
			vals: (*storage.ColumnVec).Strs, keyOf: value.StringKey, val: value.Datum.Str,
			datum: func(e *entries[string], i int) value.Datum { return value.NewString(e.strs[i]) }}
	}
}

func (im *typed[K]) snapshot() *storage.Snapshot { return im.snap }

func (im *typed[K]) size() int { return len(im.nulls) + im.ents.len() }

// push appends the entry of payload x at row to e. A full list grows all
// its arrays at once, to twice its size and to no less than listFloor
// entries, so that a delta list costs as few allocations as one array did.
func (im *typed[K]) push(e *entries[K], x K, row int32) {
	if len(e.keys) == cap(e.keys) {
		n := max(listFloor, 2*len(e.keys))
		e.keys = slices.Grow(e.keys, n-len(e.keys))
		e.rows = slices.Grow(e.rows, n-len(e.rows))
		if !im.exact {
			e.strs = slices.Grow(e.strs, n-len(e.strs))
		}
	}
	e.keys = append(e.keys, im.keyOf(x))
	e.rows = append(e.rows, row)
	if !im.exact {
		e.strs = append(e.strs, x)
	}
}

// listFloor is the least room a delta list is given: 3 KiB of a numeric
// image's keys and rows, small beside the image, and it spares a cold list
// its first eight doublings.
const listFloor = 256

// resize returns e with n entries of undefined content, in e's arrays when
// they are large enough.
func (im *typed[K]) resize(e entries[K], n int) entries[K] {
	e.keys = slices.Grow(e.keys[:0], n)[:n]
	e.rows = slices.Grow(e.rows[:0], n)[:n]
	if !im.exact {
		e.strs = slices.Grow(e.strs[:0], n)[:n]
	}
	return e
}

// each calls f with every non-NULL payload of snap's indexed column and its
// position, in row order.
func (im *typed[K]) each(snap *storage.Snapshot, f func(x K, row int32)) {
	for ci := 0; ci < snap.NumChunks(); ci++ {
		vec, base := snap.Chunk(ci).Col(im.ordinal), ci*snap.ChunkSize()
		hasNulls := vec.HasNulls()
		for i, x := range im.vals(vec) {
			if !hasNulls || !vec.Null(i) {
				f(x, int32(base+i))
			}
		}
	}
}

// digitBits is the width of the digit a sort first scatters on: 2^11 counts,
// 8 KiB on the stack, enough that the keys of a 43k-row column of ids land
// in buckets of a few entries each.
const (
	digitBits = 11
	digitMask = 1<<digitBits - 1
)

// topShift is the shift that brings the highest digitBits of the bits that
// vary (mask) down to the digit.
func topShift(mask uint64, width int) uint {
	return uint(max(0, bits.Len64(mask)-width))
}

// build sorts snap's keys from scratch. Three passes over the column: which
// key bits vary, how many keys fall in each value of the highest varying
// digit, and a scatter of every entry into its bucket straight from the
// column — stable, so each bucket holds its entries in row order, and a
// bucket whose keys are all equal is already in (key, row) order. Only the
// buckets whose keys still differ are sorted further, in place; the image
// allocates its entries and nothing else.
func (im *typed[K]) build(snap *storage.Snapshot) {
	im.snap = snap
	im.nulls = im.nulls[:0]
	for ci := 0; ci < snap.NumChunks(); ci++ {
		if vec, base := snap.Chunk(ci).Col(im.ordinal), ci*snap.ChunkSize(); vec.HasNulls() {
			for i := 0; i < vec.Len(); i++ {
				if vec.Null(i) {
					im.nulls = append(im.nulls, int32(base+i))
				}
			}
		}
	}
	n := snap.NumRows() - len(im.nulls)
	im.ents = im.resize(im.ents, n)
	if n == 0 {
		return
	}
	or, and := uint64(0), ^uint64(0)
	im.each(snap, func(x K, _ int32) {
		k := im.keyOf(x)
		or, and = or|k, and&k
	})
	mask := or &^ and // the bits that vary
	shift := topShift(mask, digitBits)
	var starts [1 << digitBits]int32
	im.each(snap, func(x K, _ int32) { starts[im.keyOf(x)>>shift&digitMask]++ })
	countsToStarts(&starts)
	e := &im.ents
	im.each(snap, func(x K, row int32) {
		k := im.keyOf(x)
		d := k >> shift & digitMask
		p := starts[d]
		starts[d]++
		e.keys[p], e.rows[p] = k, row
		if !im.exact {
			e.strs[p] = x
		}
	})
	if mask&(1<<shift-1) != 0 { // the digit left bits that vary below it
		im.finishBuckets(*e, &starts)
	}
	if !im.exact {
		im.orderTies(*e, 1)
	}
}

// countsToStarts turns the count of entries per digit into where each
// digit's bucket starts. A scatter advances each start past the entries it
// places, leaving it where the bucket ends.
func countsToStarts(c *[1 << digitBits]int32) {
	sum := int32(0)
	for d, n := range c {
		c[d] = sum
		sum += n
	}
}

// finishBuckets sorts each bucket of a scatter, ends holding where each one
// stops; the buckets are in row order.
func (im *typed[K]) finishBuckets(e entries[K], ends *[1 << digitBits]int32) {
	start := 0
	for _, end := range ends {
		if int(end)-start > 1 {
			im.sortRest(e.slice(start, int(end)), true)
		}
		start = int(end)
	}
}

// smallSort is the length at or under which a bucket is insertion-sorted
// rather than split by another digit.
const smallSort = 24

// sortRest sorts e by (key, row) — a string image's ties are orderTies'
// business. inRowOrder says e's rows ascend, so that entries of equal keys
// need not move.
func (im *typed[K]) sortRest(e entries[K], inRowOrder bool) {
	var mask uint64
	for _, k := range e.keys {
		mask |= k ^ e.keys[0]
	}
	switch {
	case mask == 0:
		if !inRowOrder {
			im.sortRows(e)
		}
	case e.len() <= smallSort:
		insertionSort(e)
	default:
		im.radixInPlace(e, mask)
	}
}

// insertionSort sorts e by (key, row).
func insertionSort[K value.Ordered](e entries[K]) {
	for i := 1; i < e.len(); i++ {
		for j := i; j > 0 && (e.keys[j] < e.keys[j-1] || e.keys[j] == e.keys[j-1] && e.rows[j] < e.rows[j-1]); j-- {
			e.swap(j, j-1)
		}
	}
}

// radixInPlace sorts e by (key, row) without scratch: an American-flag
// partition on the highest of the bits that vary (mask) — 8 of them, fewer
// for a short e — then each part recursively. The partition moves entries
// by swapping, so rows of equal keys lose their order and are sorted again
// where keys run out of bits.
func (im *typed[K]) radixInPlace(e entries[K], mask uint64) {
	im.paths.inPlace++
	width := min(8, max(3, bits.Len(uint(e.len()))-2)) // a few entries a part
	shift, digits := topShift(mask, width), uint64(1)<<width-1
	var next, end [256]int32
	for _, k := range e.keys {
		end[k>>shift&digits]++
	}
	sum := int32(0)
	for d, c := range end[:digits+1] {
		next[d] = sum
		sum += c
		end[d] = sum
	}
	for d := range next[:digits+1] {
		for next[d] < end[d] {
			i := next[d]
			if to := e.keys[i] >> shift & digits; int(to) != d {
				e.swap(int(i), int(next[to]))
				next[to]++
			} else {
				next[d]++
			}
		}
	}
	start := int32(0)
	for _, stop := range end[:digits+1] {
		if stop-start > 1 {
			im.sortRest(e.slice(int(start), int(stop)), false)
		}
		start = stop
	}
}

// sortRows sorts a run of entries of one key by row: keyed by row for the
// length of the sort, since rows are distinct.
func (im *typed[K]) sortRows(e entries[K]) {
	if slices.IsSorted(e.rows) {
		return
	}
	key := e.keys[0]
	for i, r := range e.rows {
		e.keys[i] = uint64(r)
	}
	im.sortRest(e, false)
	for i := range e.keys {
		e.keys[i] = key
	}
}

// orderTies takes a string image's entries from (key, row) order to
// (string, row) order. Strings of one key share their first 8·depth bytes;
// each run of them is sorted again on the next 8 — keyed, for the run's
// length, by those bytes as StringKey spells them — and so on down until the
// strings of a run are exhausted, where the longer one (the same bytes plus
// zeros) comes last. A run whose strings all have one length and end within
// the bytes already compared is of equal strings, in row order already.
func (im *typed[K]) orderTies(e entries[K], depth int) {
	for i := 0; i < e.len(); {
		j := i + 1
		for j < e.len() && e.keys[j] == e.keys[i] {
			j++
		}
		if j-i > 1 {
			im.orderRun(e.slice(i, j), depth)
		}
		i = j
	}
}

func (im *typed[K]) orderRun(e entries[K], depth int) {
	strs := any(e.strs).([]string)
	off, n := 8*depth, len(strs[0])
	long, same := false, true
	for _, s := range strs {
		long = long || len(s) > off
		same = same && len(s) == n
	}
	if !long && same {
		return
	}
	im.paths.stringTies++
	key := e.keys[0]
	for i, s := range strs {
		if long {
			e.keys[i] = value.StringKey(s[min(off, len(s)):])
		} else {
			e.keys[i] = uint64(len(s))
		}
	}
	im.sortRest(e, true)
	if long {
		im.orderTies(e, depth+1)
	}
	for i := range e.keys {
		e.keys[i] = key
	}
}

// sortList sorts a delta list by (key, string, row) with scratch, at least
// as long, as the buffer it scatters into. The list must arrive in row order
// — diffVec appends by position — which makes the scatter's buckets, like a
// build's, sorted wherever their keys are equal; it is checked on the way.
func (im *typed[K]) sortList(e, scratch entries[K]) {
	n := e.len()
	var mask uint64
	for i := 1; i < n; i++ {
		if e.rows[i] <= e.rows[i-1] {
			panic("index: a delta list is out of row order")
		}
		mask |= e.keys[i] ^ e.keys[0]
	}
	switch {
	case mask == 0:
	case n <= smallSort:
		insertionSort(e)
	default:
		im.paths.scattered++
		shift := topShift(mask, digitBits)
		var starts [1 << digitBits]int32
		for _, k := range e.keys {
			starts[k>>shift&digitMask]++
		}
		countsToStarts(&starts)
		t := scratch.slice(0, n)
		for i, k := range e.keys {
			d := k >> shift & digitMask
			p := starts[d]
			starts[d]++
			t.keys[p], t.rows[p] = k, e.rows[i]
			if !im.exact {
				t.strs[p] = e.strs[i]
			}
		}
		if mask&(1<<shift-1) != 0 {
			im.finishBuckets(t, &starts)
		}
		copy(e.keys, t.keys)
		copy(e.rows, t.rows)
		copy(e.strs, t.strs)
	}
	if !im.exact {
		im.orderTies(e, 1)
	}
}

// appendVec appends the entries of one chunk's rows from offset from on, vec
// being the chunk's indexed column and base the position of its first row.
func (im *typed[K]) appendVec(nulls []int32, e *entries[K], vec *storage.ColumnVec, from, base int) []int32 {
	vals := im.vals(vec)
	hasNulls := vec.HasNulls()
	for i := from; i < len(vals); i++ {
		if hasNulls && vec.Null(i) {
			nulls = append(nulls, int32(base+i))
		} else {
			im.push(e, vals[i], int32(base+i))
		}
	}
	return nulls
}

func (im *typed[K]) advance(to *storage.Snapshot) (moved, read int, full bool) {
	if im.snap != nil {
		if read, ok := im.diff(to, rebuildLimit(to.NumRows())); ok {
			return im.merge(to), read, false
		}
	}
	im.build(to)
	return 0, to.NumChunks(), true
}

// merge applies the delta lists diff filled and reports their length.
func (im *typed[K]) merge(to *storage.Snapshot) (moved int) {
	im.snap = to
	if n := len(im.nullsOut) + len(im.nullsIn); n > 0 {
		moved += n
		out := applyNulls(im.spareNulls[:0], im.nulls, im.nullsOut, im.nullsIn)
		im.nulls, im.spareNulls = out, im.nulls
	}
	if n := im.removed.len() + im.added.len(); n > 0 {
		moved += n
		// The spare is the sorts' scratch before it is the merge's target.
		im.spare = im.resize(im.spare, max(im.ents.len()-im.removed.len()+im.added.len(), im.removed.len(), im.added.len()))
		im.sortList(im.removed, im.spare)
		im.sortList(im.added, im.spare)
		im.spare.truncate()
		im.applyDelta(&im.spare, &im.ents, &im.removed, &im.added)
		im.ents, im.spare = im.spare, im.ents
	}
	return moved
}

// diff fills the delta lists with what changed on the indexed column from
// the held snapshot to to, and reports how many chunks it compared, or false
// once the delta is more than limit entries. A chunk whose indexed column is the same vector in both snapshots
// is skipped without being read: a vector a snapshot captured is never
// written again (storage.Chunk), so it holds the same keys — whatever the
// DML in between did to the chunk's other columns.
func (im *typed[K]) diff(to *storage.Snapshot, limit int) (read int, ok bool) {
	from := im.snap
	im.nullsOut, im.nullsIn = im.nullsOut[:0], im.nullsIn[:0]
	im.removed.truncate()
	im.added.truncate()
	for ci := 0; ci < max(from.NumChunks(), to.NumChunks()); ci++ {
		var ov, nv *storage.ColumnVec
		if ci < from.NumChunks() {
			ov = from.Chunk(ci).Col(im.ordinal)
		}
		if ci < to.NumChunks() {
			nv = to.Chunk(ci).Col(im.ordinal)
		}
		if ov == nv {
			continue
		}
		read++
		im.diffVec(ov, nv, ci*to.ChunkSize())
		if len(im.nullsOut)+len(im.nullsIn)+im.removed.len()+im.added.len() > limit {
			return read, false
		}
	}
	return read, true
}

// diffVec compares two versions of one chunk's indexed column (either may be
// nil: the chunk was dropped, or is new) position by position, and appends
// what changed to the delta lists in position order.
func (im *typed[K]) diffVec(ov, nv *storage.ColumnVec, base int) {
	common := 0
	if ov != nil && nv != nil {
		ok, nk := im.vals(ov), im.vals(nv)
		common = min(len(ok), len(nk))
		hasNulls := ov.HasNulls() || nv.HasNulls()
		for i := 0; i < common; i++ {
			on, nn := hasNulls && ov.Null(i), hasNulls && nv.Null(i)
			if on == nn && (on || value.Order(ok[i], nk[i]) == 0) {
				continue
			}
			if on {
				im.nullsOut = append(im.nullsOut, int32(base+i))
			} else {
				im.push(&im.removed, ok[i], int32(base+i))
			}
			if nn {
				im.nullsIn = append(im.nullsIn, int32(base+i))
			} else {
				im.push(&im.added, nk[i], int32(base+i))
			}
		}
	}
	if ov != nil {
		im.nullsOut = im.appendVec(im.nullsOut, &im.removed, ov, common, base)
	}
	if nv != nil {
		im.nullsIn = im.appendVec(im.nullsIn, &im.added, nv, common, base)
	}
}

// applyNulls appends old − removed + added to out, all ascending positions
// with removed ⊆ old.
func applyNulls(out, old, removed, added []int32) []int32 {
	for _, p := range old {
		for len(added) > 0 && added[0] < p {
			out, added = append(out, added[0]), added[1:]
		}
		if len(removed) > 0 && removed[0] == p {
			removed = removed[1:]
			continue
		}
		out = append(out, p)
	}
	if len(removed) > 0 {
		panic("index: catch-up removes a NULL position the image does not hold")
	}
	return append(out, added...)
}

// less reports whether entry i of a sorts before entry j of b: by key, then
// by string in a string image, then by row.
func (im *typed[K]) less(a *entries[K], i int, b *entries[K], j int) bool {
	if ka, kb := a.keys[i], b.keys[j]; ka != kb {
		return ka < kb
	}
	if !im.exact {
		return im.lessTie(a, i, b, j)
	}
	return a.rows[i] < b.rows[j]
}

// lessTie is less for two entries of one string key.
func (im *typed[K]) lessTie(a *entries[K], i int, b *entries[K], j int) bool {
	c := value.Order(a.strs[i], b.strs[j])
	return c < 0 || c == 0 && a.rows[i] < b.rows[j]
}

// applyDelta appends old − removed + added to out, all sorted with removed ⊆
// old, copying the runs between change points whole.
func (im *typed[K]) applyDelta(out, old, removed, added *entries[K]) {
	pos, r, a := 0, 0, 0
	for r < removed.len() || a < added.len() {
		if a == added.len() || r < removed.len() && !im.less(added, a, removed, r) {
			at := im.seek(old, pos, removed, r)
			// A row occurs once, so the same row under the same key is the entry.
			if at == old.len() || old.rows[at] != removed.rows[r] || old.keys[at] != removed.keys[r] {
				panic("index: catch-up removes an entry the image does not hold")
			}
			out.appendRange(old, pos, at)
			pos = at + 1
			r++
		} else {
			at := im.seek(old, pos, added, a)
			out.appendRange(old, pos, at)
			out.appendRange(added, a, a+1)
			pos = at
			a++
		}
	}
	out.appendRange(old, pos, old.len())
}

// seek returns the first index at or after from whose entry is not below
// entry j of x. It gallops before it bisects, so consecutive targets cost
// the log of the distance between them, not of the slice.
func (im *typed[K]) seek(s *entries[K], from int, x *entries[K], j int) int {
	lo, hi := from, s.len()
	for step := 1; lo+step-1 < s.len(); step <<= 1 {
		if !im.less(s, lo+step-1, x, j) {
			hi = lo + step - 1
			break
		}
		lo += step
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if im.less(s, m, x, j) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (im *typed[K]) search(dst []int32, lo, hi value.Bound) []int32 {
	i, j := 0, im.ents.len()
	if !lo.IsUnbounded() {
		i = im.seekBound(lo.Value, !lo.Inclusive, 0)
	}
	if !hi.IsUnbounded() {
		j = im.seekBound(hi.Value, hi.Inclusive, i)
	}
	if i >= j {
		return dst
	}
	return append(dst, im.ents.rows[i:j]...)
}

// seekBound returns the first entry at or after from whose key is above v
// or, unless above, equal to it. A bound of
// the column's own kind is encoded once and searched for on the keys, a
// string's tie decided by the string — galloping from from when that is
// past the start: the upper end of a range is sought from where the lower
// one was found, a few entries on for a point lookup. Any other bound (an
// int column probed with a float, a number against a string, NULL) is
// compared as a Datum. Both are the order the entries are sorted in.
func (im *typed[K]) seekBound(v value.Datum, above bool, from int) int {
	e := &im.ents
	if v.Kind() != im.kind {
		return from + sort.Search(e.len()-from, func(i int) bool {
			c := im.datum(e, from+i).Compare(v)
			return c > 0 || c == 0 && !above
		})
	}
	x := im.val(v)
	k := im.keyOf(x)
	past := func(i int) bool {
		c := cmp.Compare(e.keys[i], k)
		if c == 0 && !im.exact {
			c = value.Order(e.strs[i], x)
		}
		return c > 0 || c == 0 && !above
	}
	lo, hi := from, e.len()
	if from > 0 {
		for step := 1; lo+step-1 < hi; step <<= 1 {
			if past(lo + step - 1) {
				hi = lo + step - 1
				break
			}
			lo += step
		}
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if past(m) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}
