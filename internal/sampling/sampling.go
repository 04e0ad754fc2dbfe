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
package sampling

import (
	"context"
	"math/bits"
	"math/rand"

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
// whole experiment runs reproducible. It owns the scratch its draws and NDV
// counts reuse, so like its rng it serves one caller at a time.
type Sampler struct {
	rng      *rand.Rand
	seen     []uint64 // one bit per table row; all clear between draws
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

// Sample is SampleColumns transposed into rows, for callers that want
// row-shaped data; an empty sample is nil.
func (s *Sampler) Sample(ctx context.Context, tbl *storage.Table, size int, meter *costmodel.Meter, w costmodel.Weights, dop int) ([][]value.Datum, error) {
	sample, err := s.SampleColumns(ctx, tbl, size, meter, w, dop)
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
// chunk: typed arrays plus null bitmaps, one per schema column. Tables
// smaller than twice the sample size are copied whole, in storage order
// (cheaper than distinct-pick bookkeeping); larger tables are sampled
// uniformly without replacement, in draw order. The meter is charged per
// sampled row — page-level sampling cost is proportional to the sample, not
// the table, mirroring the paper's observation that collection cost is
// independent of table size.
//
// It honors cancellation and the sampling.rows fault point before touching
// the table: a returned error means no sample and no RNG consumption, so
// the caller can degrade to catalog statistics without perturbing later
// draws. Pick positions are drawn serially from the sampler's rng — the
// sample, its order and the meter charge are identical at any dop; only the
// gather fans out. All reads go through one table snapshot: workers gather
// from the same consistent image lock-free, the sample never aliases live
// storage, and concurrent DML cannot shrink the table out from under a
// drawn position.
func (s *Sampler) SampleColumns(ctx context.Context, tbl *storage.Table, size int, meter *costmodel.Meter, w costmodel.Weights, dop int) (*storage.Chunk, error) {
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
	var positions []int // nil gathers the whole table
	if rows < n {
		positions = s.draw(n, rows)
	}
	out := storage.NewDetachedChunk(snap.Schema(), rows)
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

// draw picks size distinct positions in [0, n), in rng order.
func (s *Sampler) draw(n, size int) []int {
	if words := (n + 63) / 64; len(s.seen) < words {
		s.seen = make([]uint64, words)
	}
	positions := make([]int, 0, size)
	for len(positions) < size {
		idx := s.rng.Intn(n)
		if s.seen[idx>>6]&(1<<(uint(idx)&63)) != 0 {
			continue
		}
		s.seen[idx>>6] |= 1 << (uint(idx) & 63)
		positions = append(positions, idx)
	}
	for _, idx := range positions {
		s.seen[idx>>6] = 0
	}
	return positions
}

// EvaluateGroups is EvaluateColumns over row-shaped data, serially; having no
// error to return, it re-raises a recovered morsel panic.
func EvaluateGroups(sample [][]value.Datum, groups [][]qgm.Predicate, meter *costmodel.Meter, w costmodel.Weights) []float64 {
	sels, err := EvaluateColumns(storage.ChunkFromRows(sample), groups, meter, w, 1)
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
func EvaluateColumns(sample *storage.Chunk, groups [][]qgm.Predicate, meter *costmodel.Meter, w costmodel.Weights, dop int) ([]float64, error) {
	out := make([]float64, len(groups))
	n := sample.Rows()
	if n == 0 {
		return out, nil
	}

	// Distinct predicates across all groups, in deterministic first-use
	// order; members[gi] lists group gi's predicates by that index.
	index := make(map[string]int)
	var preds []qgm.Predicate
	members := make([][]int, len(groups))
	for gi, group := range groups {
		for _, p := range group {
			k := p.String()
			pi, ok := index[k]
			if !ok {
				pi = len(preds)
				index[k] = pi
				preds = append(preds, p)
			}
			members[gi] = append(members[gi], pi)
		}
	}
	words := (n + 63) / 64
	matches := make([]uint64, len(preds)*words) // predicate pi owns [pi*words, (pi+1)*words)

	// Phase 1: match bitmaps, one predicate per chunk.
	if err := fanOut(len(preds), dop, 1, func(_, lo, hi int) error {
		sub := meter.Worker()
		sel := make([]int32, 0, n)
		for pi := lo; pi < hi; pi++ {
			bm := matches[pi*words:]
			sel = qgm.AppendMatches(sel[:0], preds[pi:pi+1], sample, 0, n, 0)
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

// distinctCounter counts the distinct values and the singletons of one
// column vector in a reusable open-addressing table: no per-column copy and,
// once the table has grown to the sample size, no allocation.
type distinctCounter struct {
	slots []distinctSlot
	shift uint // 64 − log2(len(slots)): the top bits of a hash pick a slot
	d, f1 int
}

type distinctSlot struct {
	hash  uint64 // of the value's equality key
	row   uint32 // first row holding the value
	count uint32 // 0 marks an empty slot
}

// reset empties the table and sizes it for up to rows values at load ≤ 1/2.
func (t *distinctCounter) reset(rows int) {
	size := 1 << bits.Len(uint(2*rows))
	if cap(t.slots) < size {
		t.slots = make([]distinctSlot, size)
	}
	t.slots = t.slots[:size]
	clear(t.slots)
	t.shift, t.d, t.f1 = uint(64-bits.TrailingZeros(uint(size))), 0, 0
}

// countDistinct counts the non-NULL values of vec, vals being its dense array,
// and returns how many there were. A value is hashed through its equality key
// and confirmed against the slot's first row with the typed order: within one
// kind both say the same.
func countDistinct[T value.Ordered](t *distinctCounter, vec *storage.ColumnVec, vals []T, hash func(T) uint64) (n int) {
	nulls, mask := vec.HasNulls(), uint64(len(t.slots)-1)
	for row, x := range vals {
		if nulls && vec.Null(row) {
			continue
		}
		n++
		h := hash(x)
		for i := h >> t.shift; ; i = (i + 1) & mask {
			sl := &t.slots[i]
			if sl.count == 0 {
				*sl = distinctSlot{hash: h, row: uint32(row), count: 1}
				t.d++
				t.f1++
				break
			}
			if sl.hash == h && value.Order(vals[sl.row], x) == 0 {
				if sl.count == 1 {
					t.f1--
				}
				sl.count++
				break
			}
		}
	}
	return n
}

// distinctIn counts vec's non-NULL values (n), the distinct ones among them
// (d) and those appearing exactly once (f1). Two values are the same when
// their equality keys are (value.Key): −0 is +0 and NaN is one value.
func (s *Sampler) distinctIn(vec *storage.ColumnVec) (n, d, f1 int) {
	t := &s.distinct
	t.reset(vec.Len())
	switch vec.Kind() {
	case value.KindInt:
		n = countDistinct(t, vec, vec.Ints(), func(x int64) uint64 { return value.NewInt(x).Key().Hash() })
	case value.KindFloat:
		n = countDistinct(t, vec, vec.Floats(), func(x float64) uint64 { return value.NewFloat(x).Key().Hash() })
	default:
		n = countDistinct(t, vec, vec.Strs(), func(x string) uint64 { return value.NewString(x).Key().Hash() })
	}
	return n, t.d, t.f1
}

// ExactNDV counts the distinct non-NULL values of a vector that holds its
// whole column.
func (s *Sampler) ExactNDV(vec *storage.ColumnVec) int64 {
	_, d, _ := s.distinctIn(vec)
	return int64(d)
}

// EstimateNDV estimates a column's number of distinct values from its
// sampled vector out of a table of tableCard rows, using the Duj1 estimator
// of Haas et al. (the one RUNSTATS-style sampled statistics collection
// uses):
//
//	d̂ = d / (1 − (1−q)·f1/n)
//
// where n counts the sample's non-NULL values, d the distinct ones, f1
// those appearing exactly once, and q = n/N is the sampling fraction. The
// result is clamped to [d, N].
func (s *Sampler) EstimateNDV(vec *storage.ColumnVec, tableCard int) int64 {
	n, distinct, f1 := s.distinctIn(vec)
	d := int64(distinct)
	if d == 0 || tableCard <= 0 {
		return 0
	}
	if n >= tableCard {
		return d // full scan: exact
	}
	q := float64(n) / float64(tableCard)
	denom := 1 - (1-q)*float64(f1)/float64(n)
	if denom <= 0 {
		return int64(tableCard) // everything distinct in the sample: key-like
	}
	est := int64(float64(d) / denom)
	if est < d {
		est = d
	}
	if est > int64(tableCard) {
		est = int64(tableCard)
	}
	return est
}

// SelectivityFloor is the smallest selectivity a sample of the given size
// can credibly assert; observed-zero groups are floored to half a row to
// avoid zero cardinality estimates downstream.
func SelectivityFloor(sampleSize int) float64 {
	if sampleSize <= 0 {
		return 0.001
	}
	return 0.5 / float64(sampleSize)
}
