package index

import (
	"cmp"
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
	search(dst []int32, lo, hi Bound) []int32
	// size counts the entries, NULL keys included.
	size() int
}

// pair is one index entry. (key, row), keys in the order of internal/value,
// is a total order — a row appears once — so sorting needs no stability.
type pair[K value.Ordered] struct {
	key K
	row int32
}

func comparePairs[K value.Ordered](a, b pair[K]) int {
	if c := value.Order(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.row, b.row)
}

// typed is the image for one key type. Keys are read straight from the
// chunks' dense arrays; rows with a NULL key are kept apart from the sorted
// entries, as a list of positions, because no probe ever returns them.
type typed[K value.Ordered] struct {
	kind    value.Kind // of the column, and of the bounds that compare as keys
	ordinal int
	keys    func(*storage.ColumnVec) []K // the column's dense array
	key     func(value.Datum) K          // a bound of the column's kind as a key
	datum   func(K) value.Datum          // a key as a Datum, for every other bound

	snap  *storage.Snapshot
	nulls []int32   // positions of NULL keys, ascending
	ents  []pair[K] // non-NULL keys, sorted by (key, row)

	// Reused across advances: the merge targets that become nulls and ents,
	// and the delta lists of the last diff.
	spareNulls        []int32
	spare             []pair[K]
	nullsOut, nullsIn []int32
	removed, added    []pair[K]
}

func newImage(kind value.Kind, ordinal int) image {
	switch kind {
	case value.KindInt:
		return &typed[int64]{kind: kind, ordinal: ordinal,
			keys: (*storage.ColumnVec).Ints, key: value.Datum.Int, datum: value.NewInt}
	case value.KindFloat:
		return &typed[float64]{kind: kind, ordinal: ordinal,
			keys: (*storage.ColumnVec).Floats, key: value.Datum.Float, datum: value.NewFloat}
	default: // storage keeps every other kind in the string array
		return &typed[string]{kind: value.KindString, ordinal: ordinal,
			keys: (*storage.ColumnVec).Strs, key: value.Datum.Str, datum: value.NewString}
	}
}

func (im *typed[K]) snapshot() *storage.Snapshot { return im.snap }

func (im *typed[K]) size() int { return len(im.nulls) + len(im.ents) }

// build sorts snap's keys from scratch.
func (im *typed[K]) build(snap *storage.Snapshot) {
	im.nulls, im.ents = im.nulls[:0], slices.Grow(im.ents[:0], snap.NumRows())
	for ci := 0; ci < snap.NumChunks(); ci++ {
		im.nulls, im.ents = im.appendVec(im.nulls, im.ents, snap.Chunk(ci).Col(im.ordinal), 0, ci*snap.ChunkSize())
	}
	slices.SortFunc(im.ents, comparePairs[K])
	im.snap = snap
}

// appendVec appends the entries of one chunk's rows from offset from on, vec
// being the chunk's indexed column and base the position of its first row.
func (im *typed[K]) appendVec(nulls []int32, ents []pair[K], vec *storage.ColumnVec, from, base int) ([]int32, []pair[K]) {
	keys := im.keys(vec)
	hasNulls := vec.HasNulls()
	for i := from; i < len(keys); i++ {
		if hasNulls && vec.Null(i) {
			nulls = append(nulls, int32(base+i))
		} else {
			ents = append(ents, pair[K]{keys[i], int32(base + i)})
		}
	}
	return nulls, ents
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
		out := applyDelta(im.spareNulls[:0], im.nulls, im.nullsOut, im.nullsIn, cmp.Compare[int32])
		im.nulls, im.spareNulls = out, im.nulls
	}
	if n := len(im.removed) + len(im.added); n > 0 {
		moved += n
		slices.SortFunc(im.removed, comparePairs[K])
		slices.SortFunc(im.added, comparePairs[K])
		out := applyDelta(im.spare[:0], im.ents, im.removed, im.added, comparePairs[K])
		im.ents, im.spare = out, im.ents
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
	im.removed, im.added = im.removed[:0], im.added[:0]
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
		if len(im.nullsOut)+len(im.nullsIn)+len(im.removed)+len(im.added) > limit {
			return read, false
		}
	}
	return read, true
}

// diffVec compares two versions of one chunk's indexed column (either may be
// nil: the chunk was dropped, or is new) position by position.
func (im *typed[K]) diffVec(ov, nv *storage.ColumnVec, base int) {
	common := 0
	if ov != nil && nv != nil {
		ok, nk := im.keys(ov), im.keys(nv)
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
				im.removed = append(im.removed, pair[K]{ok[i], int32(base + i)})
			}
			if nn {
				im.nullsIn = append(im.nullsIn, int32(base+i))
			} else {
				im.added = append(im.added, pair[K]{nk[i], int32(base + i)})
			}
		}
	}
	if ov != nil {
		im.nullsOut, im.removed = im.appendVec(im.nullsOut, im.removed, ov, common, base)
	}
	if nv != nil {
		im.nullsIn, im.added = im.appendVec(im.nullsIn, im.added, nv, common, base)
	}
}

// applyDelta appends old − removed + added to out, all sorted under
// compare with removed ⊆ old, copying the runs between change points whole.
func applyDelta[T any](out, old, removed, added []T, compare func(a, b T) int) []T {
	out = slices.Grow(out, len(old)-len(removed)+len(added))
	pos := 0
	for len(removed) > 0 || len(added) > 0 {
		if len(added) == 0 || len(removed) > 0 && compare(removed[0], added[0]) <= 0 {
			at := seek(old, pos, removed[0], compare)
			if at == len(old) || compare(old[at], removed[0]) != 0 {
				panic("index: catch-up removes an entry the image does not hold")
			}
			out = append(out, old[pos:at]...)
			pos = at + 1
			removed = removed[1:]
		} else {
			at := seek(old, pos, added[0], compare)
			out = append(append(out, old[pos:at]...), added[0])
			pos = at
			added = added[1:]
		}
	}
	return append(out, old[pos:]...)
}

// seek returns the first index at or after from whose element is not below
// x. It gallops before it bisects, so consecutive targets cost the log of
// the distance between them, not of the slice.
func seek[T any](s []T, from int, x T, compare func(a, b T) int) int {
	lo, hi := from, len(s)
	for step := 1; lo+step-1 < len(s); step <<= 1 {
		if compare(s[lo+step-1], x) >= 0 {
			hi = lo + step - 1
			break
		}
		lo += step
	}
	i, _ := slices.BinarySearchFunc(s[lo:hi], x, compare)
	return lo + i
}

func (im *typed[K]) search(dst []int32, lo, hi Bound) []int32 {
	ents := im.ents
	if !lo.IsUnbounded() {
		ents = ents[im.seekBound(ents, lo.Value, !lo.Inclusive):]
	}
	if !hi.IsUnbounded() {
		ents = ents[:im.seekBound(ents, hi.Value, hi.Inclusive)]
	}
	dst = slices.Grow(dst, len(ents))
	for _, e := range ents {
		dst = append(dst, e.row)
	}
	return dst
}

// seekBound returns the first position of ents whose key is above v or,
// unless above, equal to it. A bound of the column's own kind is compared as
// a key; any other (an int column probed with a float, a number against a
// string, NULL) as a Datum. Both are the order the entries are sorted in.
func (im *typed[K]) seekBound(ents []pair[K], v value.Datum, above bool) int {
	past := func(c int) bool { return c > 0 || c == 0 && !above }
	if v.Kind() == im.kind {
		k := im.key(v)
		return sort.Search(len(ents), func(i int) bool { return past(value.Order(ents[i].key, k)) })
	}
	return sort.Search(len(ents), func(i int) bool { return past(im.datum(ents[i].key).Compare(v)) })
}
