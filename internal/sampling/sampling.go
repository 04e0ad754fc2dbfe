// Package sampling implements the row sampling that powers JITS statistics
// collection. The paper's prototype invokes RUNSTATS with sampling and
// constructs on-the-fly sampling queries to collect specific predicate
// selectivities; here a Sampler draws a fixed-size random sample of a table
// (the paper notes the sample size sufficient for accurate statistics is
// independent of the table size) and EvaluateGroups computes the observed
// selectivity of every candidate predicate group from that one sample —
// which is why the sensitivity analysis treats all of a table's candidate
// groups as one unit: "once a table is sampled, it is relatively cheap to
// collect the selectivities of all predicate groups that belong to this
// table".
//
// A sample comes back in row order — the rows the rng picked, read chunk by
// chunk — and belongs to the Sampler that drew it: it is scratch the next
// draw overwrites, as are the selectivities Sampler.EvaluateColumns returns,
// so collecting one table after another allocates nothing once warm.
package sampling

import (
	"context"
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/morsel"
	"repro/internal/qgm"
	"repro/internal/storage"
	"repro/internal/value"
)

// evalMorselSize is the number of sample rows (or whole predicates) one
// parallel evaluation worker claims at a time.
const evalMorselSize = 512

// fanOut runs fn over [0, n) on the engine's one morsel runner, so sampling
// passes the executor's two fault points per morsel and a worker panic comes
// back as a *morsel.PanicError (JITS degrades the table on it). An empty
// range runs and fires nothing. The runner gets no context: cancellation is
// checked once, before a draw touches the table, never between its morsels.
func fanOut(n, dop, size int, fn func(m, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	return morsel.Run(nil, n, dop, size, fn)
}

// Sampler draws deterministic pseudo-random samples; a fixed seed makes
// whole experiment runs reproducible. It owns the scratch its draws,
// evaluations and NDV counts reuse — the sample itself among them — so like
// its rng it serves one caller at a time.
type Sampler struct {
	rng      *rand.Rand
	seen     []uint64       // one bit per table row; all clear between draws
	picks    []int32        // the last draw's positions, ascending
	sample   *storage.Chunk // the last draw; the next one resets it in place
	eval     evaluator
	distinct distinctCounter
}

// New returns a sampler seeded for reproducibility.
func New(seed int64) *Sampler {
	return &Sampler{rng: rand.New(rand.NewSource(seed))}
}

// EffectiveSampleRows reports how many rows a sample request for size rows
// from a tableRows-row table will actually materialize: tables smaller than
// twice the sample size are copied whole (cheaper than distinct-pick
// bookkeeping). Memory accounting must reserve for this number, not for the
// nominal size.
func EffectiveSampleRows(tableRows, size int) int {
	if tableRows <= 0 || size <= 0 {
		return 0
	}
	if tableRows <= size*2 {
		return tableRows
	}
	return size
}

// Sample is SampleColumns of every column transposed into rows, for callers
// that want row-shaped data; an empty sample is nil. The rows are boxed at
// once, so they are the caller's and outlive the next draw.
func (s *Sampler) Sample(ctx context.Context, tbl *storage.Table, size int, meter *costmodel.Meter, w costmodel.Weights, dop int) ([][]value.Datum, error) {
	sample, err := s.SampleColumns(ctx, tbl, size, meter, w, dop, nil)
	if err != nil || sample.Rows() == 0 {
		return nil, err
	}
	rows := make([][]value.Datum, sample.Rows())
	for i := range rows {
		rows[i] = sample.AppendRowTo(make([]value.Datum, 0, sample.NumCols()), i)
	}
	return rows, nil
}

// SampleColumns draws up to size rows of the table into a detached columnar
// chunk: typed arrays plus null bitmaps, one per schema column. It gathers
// the columns whose ordinals cols lists, every column when cols is nil; any
// other column of the chunk is empty (length 0). Which columns are gathered
// changes neither the rows drawn nor the rng or the meter. Tables smaller
// than twice the sample size are copied whole (cheaper than distinct-pick
// bookkeeping); larger tables are sampled uniformly without replacement.
// Either way the rows come in row order: a drawn sample is the set of rows
// the rng picked, not the order it picked them in, and nothing computed
// from a sample — match counts, min/max, Duj1's n, d and f1 — depends on
// its order. The meter is charged per sampled row — page-level sampling
// cost is proportional to the sample, not the table, mirroring the paper's
// observation that collection cost is independent of table size.
//
// The chunk is the sampler's: the next draw resets it in place, so it is
// valid until then and its caller must neither keep nor write it (Sample
// boxes its rows at once). What it retains between draws is bounded by one
// sample: at most twice size rows of the widest schema drawn.
//
// It honors cancellation and the sampling.rows fault point before touching
// the table: a returned error means no sample and no RNG consumption, so
// the caller can degrade to catalog statistics without perturbing later
// draws. Pick positions are drawn serially from the sampler's rng — the
// sample and the meter charge are identical at any dop; only the gather
// fans out. All reads go through one table snapshot: workers gather from
// the same consistent image lock-free, the sample never aliases live
// storage, and concurrent DML cannot shrink the table out from under a
// drawn position.
func (s *Sampler) SampleColumns(ctx context.Context, tbl *storage.Table, size int, meter *costmodel.Meter, w costmodel.Weights, dop int, cols []int) (*storage.Chunk, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if err := faultinject.Hit(faultinject.SamplingRows); err != nil {
		return nil, err
	}
	snap := tbl.Snapshot()
	n := snap.NumRows()
	rows := EffectiveSampleRows(n, size)
	var positions []int32 // nil gathers the whole table
	if rows < n {
		positions = s.draw(n, rows)
	}
	s.sample = storage.ResetDetachedChunk(s.sample, snap.Schema(), rows, cols)
	out := s.sample
	// evalMorselSize is a multiple of 64, as concurrent Gather ranges need.
	if err := fanOut(rows, dop, evalMorselSize, func(_, lo, hi int) error {
		snap.Gather(out, positions, lo, hi)
		return nil
	}); err != nil {
		return nil, err
	}
	meter.Add(w.SampleRow * float64(rows))
	return out, nil
}

// draw picks size distinct positions in [0, n) from the rng into the seen
// bitmap, then returns them in ascending order by walking the bitmap, which
// clears it. The rng is consumed exactly as by a draw that kept pick order.
// The positions are the sampler's, valid until its next draw.
func (s *Sampler) draw(n, size int) []int32 {
	words := (n + 63) / 64
	if len(s.seen) < words {
		s.seen = make([]uint64, words)
	}
	for picked := 0; picked < size; {
		idx := s.rng.Intn(n)
		if s.seen[idx>>6]&(1<<(uint(idx)&63)) != 0 {
			continue
		}
		s.seen[idx>>6] |= 1 << (uint(idx) & 63)
		picked++
	}
	positions := slices.Grow(s.picks[:0], size)
	for w, word := range s.seen[:words] {
		for ; word != 0; word &= word - 1 {
			positions = append(positions, int32(w<<6|bits.TrailingZeros64(word)))
		}
		s.seen[w] = 0
	}
	s.picks = positions
	return positions
}

// EvaluateGroups is EvaluateColumns over row-shaped data, serially, on
// scratch of its own; having no error to return, it re-raises a recovered
// morsel panic.
func EvaluateGroups(sample [][]value.Datum, groups [][]qgm.Predicate, meter *costmodel.Meter, w costmodel.Weights) []float64 {
	sels, err := new(evaluator).evaluate(storage.ChunkFromRows(sample), groups, meter, w, 1)
	if err != nil {
		panic(err)
	}
	return sels
}

// EvaluateColumns returns the observed selectivity of each predicate group
// over the sample. Every distinct predicate is evaluated once, over its own
// column, by the compiled kernels the executor's scan runs
// (qgm.AppendMatches), into a match bitmap; a group's selectivity is the
// popcount of the AND of its predicates' bitmaps. The cost is dominated by
// |sample| × |distinct predicates|, not by the exponential group count. An
// empty sample yields all zeros.
//
// Both phases fan out across up to dop workers, one predicate and one group
// at a time. Selectivities and meter totals are identical at any dop (each
// worker charges a local sub-meter, merged once), so compile-time
// statistics — and therefore plans — do not depend on the degree of
// parallelism. The only error is a morsel panic (*morsel.PanicError).
//
// It runs on the sampler's scratch, which allocates nothing once it has grown
// to the largest sample and predicate count seen, and the selectivities are
// the sampler's too: valid until its next evaluation.
func (s *Sampler) EvaluateColumns(sample *storage.Chunk, groups [][]qgm.Predicate, meter *costmodel.Meter, w costmodel.Weights, dop int) ([]float64, error) {
	return s.eval.evaluate(sample, groups, meter, w, dop)
}

// evaluator is Sampler.EvaluateColumns' scratch: the distinct predicates and
// their texts, each group's members, one selection vector and one match
// bitmap per predicate, and the selectivities.
type evaluator struct {
	keys    []byte // the distinct predicates' texts, back to back
	ends    []int  // predicate pi's text is keys[ends[pi-1]:ends[pi]]
	preds   []qgm.Predicate
	members [][]int // group gi's predicates, by index into preds
	sel     []int32 // predicate pi owns [pi*n, (pi+1)*n)
	matches []uint64
	out     []float64
}

// index returns the index of the distinct predicate with text key, or -1. A
// table has a handful of distinct predicates, so a scan beats a map, and it
// allocates no key.
func (e *evaluator) index(key []byte) int {
	from := 0
	for pi, to := range e.ends {
		if string(e.keys[from:to]) == string(key) {
			return pi
		}
		from = to
	}
	return -1
}

func (e *evaluator) evaluate(sample *storage.Chunk, groups [][]qgm.Predicate, meter *costmodel.Meter, w costmodel.Weights, dop int) ([]float64, error) {
	out := slices.Grow(e.out[:0], len(groups))[:len(groups)]
	e.out = out
	n := sample.Rows()
	if n == 0 {
		clear(out)
		return out, nil
	}

	// Distinct predicates across all groups, in deterministic first-use
	// order, keyed by their text; members[gi] lists group gi's predicates by
	// that index.
	e.keys, e.ends, e.preds = e.keys[:0], e.ends[:0], e.preds[:0]
	if len(e.members) < len(groups) {
		e.members = append(e.members, make([][]int, len(groups)-len(e.members))...)
	}
	members := e.members[:len(groups)]
	for gi, group := range groups {
		m := members[gi][:0]
		for _, p := range group {
			from := len(e.keys)
			e.keys = p.AppendText(e.keys)
			pi := e.index(e.keys[from:])
			if pi < 0 {
				pi = len(e.preds)
				e.preds = append(e.preds, p)
				e.ends = append(e.ends, len(e.keys))
			} else {
				e.keys = e.keys[:from]
			}
			m = append(m, pi)
		}
		members[gi] = m
	}
	preds := e.preds
	words := (n + 63) / 64
	e.matches = slices.Grow(e.matches[:0], len(preds)*words)[:len(preds)*words]
	matches := e.matches // predicate pi owns [pi*words, (pi+1)*words)
	clear(matches)
	e.sel = slices.Grow(e.sel[:0], len(preds)*n)[:len(preds)*n]

	// Phase 1: match bitmaps, one predicate per chunk.
	if err := fanOut(len(preds), dop, 1, func(_, lo, hi int) error {
		sub := meter.Worker()
		for pi := lo; pi < hi; pi++ {
			bm := matches[pi*words:]
			sel := qgm.AppendMatches(e.sel[pi*n:pi*n:(pi+1)*n], preds[pi:pi+1], sample, 0, n, 0)
			for _, i := range sel {
				bm[i>>6] |= 1 << (uint(i) & 63)
			}
			sub.Add(w.PredEval * float64(n))
		}
		sub.Merge()
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 2: conjunction counts, one group per chunk.
	err := fanOut(len(groups), dop, 1, func(_, lo, hi int) error {
		for gi := lo; gi < hi; gi++ {
			if len(members[gi]) == 0 {
				out[gi] = 1
				continue
			}
			count := 0
			for wi := 0; wi < words; wi++ {
				and := ^uint64(0)
				for _, pi := range members[gi] {
					and &= matches[pi*words+wi]
				}
				count += bits.OnesCount64(and)
			}
			out[gi] = float64(count) / float64(n)
		}
		return nil
	})
	return out, err
}

// ColumnCount is one pass's account of a column vector: its rows, NULL or
// not (Rows), the non-NULL values among them (N), the distinct ones (D) and
// those that occur exactly once (F1) — Duj1's inputs.
type ColumnCount struct {
	Rows, N, D, F1 int
}

// CountColumn counts vec's distinct values in one pass over its rows. Two
// values are the same when their equality keys are (value.Key): −0 is +0
// and NaN is one value.
//
// Each value is identified by 64 bits. A number's is its order key
// (value.IntKey, value.FloatKey), and a string of at most 8 bytes is its
// bytes, taken together with its length; both are exact, so a hit is
// decided without reading the value back. A longer string's is a hash of
// its bytes, and a hit is confirmed with == against the first row holding
// it.
//
// It runs on the sampler's scratch and allocates nothing once that has grown
// to the longest vector counted. A vector holds fewer than 2^31 rows.
func (s *Sampler) CountColumn(vec *storage.ColumnVec) ColumnCount {
	t := &s.distinct
	t.reset(vec.Len())
	var c ColumnCount
	switch vec.Kind() {
	case value.KindInt:
		c = countNumbers(t, vec, vec.Ints())
	case value.KindFloat:
		c = countNumbers(t, vec, vec.Floats())
	default:
		c = t.countStrings(vec, vec.Strs())
	}
	c.Rows = vec.Len()
	return c
}

// MinMax returns vec's smallest and largest finite value
// (value.Datum.Finite), each the first row that holds it, from one walk over
// its typed array with no table; both are NULL when it has none. It orders
// as value.Order does: −0 and +0 are one value, strings compare by their
// bytes.
func MinMax(vec *storage.ColumnVec) (lo, hi value.Datum) {
	var minRow, maxRow int
	switch vec.Kind() {
	case value.KindInt:
		minRow, maxRow = extremes(vec, vec.Ints())
	case value.KindFloat:
		minRow, maxRow = extremes(vec, vec.Floats())
	default:
		minRow, maxRow = stringExtremes(vec, vec.Strs())
	}
	if minRow < 0 {
		return value.Null, value.Null
	}
	return vec.Datum(minRow), vec.Datum(maxRow)
}

// finite is whether x has a place in a domain: not NaN or ±Inf.
func finite[T int64 | float64](x T) bool {
	f, ok := any(x).(float64)
	return !ok || f-f == 0
}

// extremes is the first rows holding the smallest and largest finite value
// of a numeric column, vals being its dense array; −1 for both when there is
// none.
func extremes[T int64 | float64](vec *storage.ColumnVec, vals []T) (minRow, maxRow int) {
	nulls := vec.HasNulls()
	minRow, maxRow = -1, -1
	var lo, hi T
	for row, x := range vals {
		if !finite(x) || nulls && vec.Null(row) {
			continue
		}
		switch {
		case minRow < 0:
			lo, hi, minRow, maxRow = x, x, row, row
		case x < lo:
			lo, minRow = x, row
		case x > hi:
			hi, maxRow = x, row
		}
	}
	return minRow, maxRow
}

// stringExtremes is extremes for a string column. A row whose first byte
// lies strictly between the first bytes of the current minimum and maximum
// sorts between them by that byte alone, so it is not compared; an empty
// string's first byte counts as below every byte.
func stringExtremes(vec *storage.ColumnVec, vals []string) (minRow, maxRow int) {
	nulls := vec.HasNulls()
	minRow, maxRow = -1, -1
	var lo, hi string
	loByte, hiByte := -1, -1 // first bytes of lo and hi
	for row, x := range vals {
		if nulls && vec.Null(row) {
			continue
		}
		b := -1
		if len(x) > 0 {
			b = int(x[0])
		}
		switch {
		case loByte < b && b < hiByte: // neither extreme
		case minRow < 0:
			lo, hi, minRow, maxRow, loByte, hiByte = x, x, row, row, b, b
		case x < lo:
			lo, minRow, loByte = x, row, b
		case x > hi:
			hi, maxRow, hiByte = x, row, b
		}
	}
	return minRow, maxRow
}

// EstimateNDV estimates the number of distinct values of a column of a
// tableCard-row table from its sampled count, using the Duj1 estimator of
// Haas et al. (the one RUNSTATS-style sampled statistics collection uses):
//
//	d̂ = d / (1 − (1−q)·f1/n)
//
// where n counts the sample's non-NULL values, d the distinct ones, f1
// those appearing exactly once, and q = r/N is the sampling fraction: the
// sample's r rows, NULL or not, over the table's N. A sample of every row
// (r ≥ N) is exact. The result is clamped to [d, N·n/r], the table's
// estimated non-NULL rows.
func (c ColumnCount) EstimateNDV(tableCard int) int64 {
	d := int64(c.D)
	if d == 0 || tableCard <= 0 {
		return 0
	}
	if c.Rows >= tableCard {
		return d // full scan: exact
	}
	nonNull := int64(tableCard) * int64(c.N) / int64(c.Rows) // ≥ n ≥ d, as N > r
	q := float64(c.Rows) / float64(tableCard)
	denom := 1 - (1-q)*float64(c.F1)/float64(c.N)
	if denom <= 0 {
		return nonNull // everything distinct in the sample: key-like
	}
	return min(max(int64(float64(d)/denom), d), nonNull)
}

// distinctCounter is CountColumn's scratch: a reusable open-addressing table
// of value identities.
type distinctCounter struct {
	slots []distinctSlot
	shift uint // 64 − log2(len(slots)): the top bits of a mixed identity pick a slot
}

type distinctSlot struct {
	id    uint64 // the value's identity
	aux   uint32 // 0 for a number; shortString|length for a string of at most 8 bytes; a longer string's first row
	count uint32 // rows holding the value; 0 marks an empty slot
}

// shortString marks the aux of a slot that holds a string of at most 8
// bytes; a longer string's aux is a row, below it.
const shortString = 1 << 31

// reset empties the table and sizes it for up to rows values at load ≤ 1/2.
func (t *distinctCounter) reset(rows int) {
	size := 1 << bits.Len(uint(2*rows))
	if cap(t.slots) < size {
		t.slots = make([]distinctSlot, size)
	}
	t.slots = t.slots[:size]
	clear(t.slots)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// slot is where the probe for identity id starts. The high half is folded
// down before the multiply: a short fraction's float varies in its high bits
// only.
func (t *distinctCounter) slot(id uint64) uint64 {
	return (id ^ id>>32) * 0x9E3779B97F4A7C15 >> t.shift
}

// orderKey is a number's order key, its identity.
func orderKey[T int64 | float64](x T) uint64 {
	if f, ok := any(x).(float64); ok {
		return value.FloatKey(f)
	}
	return value.IntKey(int64(x))
}

// countNumbers counts a number column, vals being its dense array.
func countNumbers[T int64 | float64](t *distinctCounter, vec *storage.ColumnVec, vals []T) (c ColumnCount) {
	nulls, mask := vec.HasNulls(), uint64(len(t.slots)-1)
	for row, x := range vals {
		if nulls && vec.Null(row) {
			continue
		}
		k := orderKey(x)
		c.N++
		for i := t.slot(k); ; i = (i + 1) & mask {
			sl := &t.slots[i]
			if sl.count == 0 {
				*sl = distinctSlot{id: k, count: 1}
				c.D++
				c.F1++
				break
			}
			if sl.id == k {
				if sl.count == 1 {
					c.F1--
				}
				sl.count++
				break
			}
		}
	}
	return c
}

// countStrings counts a string column, vals being its dense array.
func (t *distinctCounter) countStrings(vec *storage.ColumnVec, vals []string) (c ColumnCount) {
	nulls, mask := vec.HasNulls(), uint64(len(t.slots)-1)
	for row, x := range vals {
		if nulls && vec.Null(row) {
			continue
		}
		c.N++
		var id uint64
		aux := uint32(row)
		switch n := len(x); {
		case n <= 8:
			id, aux = shortIdentity(x), shortString|uint32(n)
		case n <= 16:
			id = midIdentity(x)
		default:
			id = maphash.String(stringSeed, x)
		}
		for i := t.slot(id); ; i = (i + 1) & mask {
			sl := &t.slots[i]
			if sl.count == 0 {
				*sl = distinctSlot{id: id, aux: aux, count: 1}
				c.D++
				c.F1++
				break
			}
			// A short string's aux is fixed by its length; a longer one's
			// (its row) never equals an earlier slot's.
			if sl.id == id && (sl.aux == aux || aux < shortString && sl.aux < shortString && vals[sl.aux] == x) {
				if sl.count == 1 {
					c.F1--
				}
				sl.count++
				break
			}
		}
	}
	return c
}

// shortIdentity is a string of at most 8 bytes as 8 bytes; with its length
// it is the string, exactly. From 4 bytes on they are its first and last 4
// (overlapping below 8), under 4 its first, middle and last byte.
func shortIdentity(x string) uint64 {
	if n := len(x); n >= 4 {
		return uint64(binary.LittleEndian.Uint32([]byte(x[:4]))) | uint64(binary.LittleEndian.Uint32([]byte(x[n-4:])))<<32
	} else if n > 0 {
		return uint64(x[0]) | uint64(x[n>>1])<<8 | uint64(x[n-1])<<16
	}
	return 0
}

// midIdentity hashes a string of 9 to 16 bytes from two overlapping 8-byte
// loads.
func midIdentity(x string) uint64 {
	a := binary.LittleEndian.Uint64([]byte(x[:8]))
	b := binary.LittleEndian.Uint64([]byte(x[len(x)-8:]))
	return a*0x9E3779B97F4A7C15 ^ bits.RotateLeft64(b*0xC2B2AE3D27D4EB4F, 31)
}

var stringSeed = maphash.MakeSeed()

// SelectivityFloor is the smallest selectivity a sample of the given size
// can credibly assert; observed-zero groups are floored to half a row to
// avoid zero cardinality estimates downstream.
func SelectivityFloor(sampleSize int) float64 {
	if sampleSize <= 0 {
		return 0.001
	}
	return 0.5 / float64(sampleSize)
}
