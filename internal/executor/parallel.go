// Morsel-driven parallel operators. Base-table scans, hash joins and
// grouped aggregation split their input into fixed-size row morsels that a
// small worker pool claims from a shared atomic cursor (the scheduling model
// of Leis et al., "Morsel-Driven Parallelism"). Every operator buffers its
// output per morsel and concatenates the buffers in morsel order, so the
// emitted row order — and therefore every downstream result, including
// ORDER BY tie-breaks and first-appearance group order — is identical to
// the serial operators'. Meter charges are identical too: parallelism
// shrinks wall-clock time, never the simulated work, which is what keeps
// the paper's cost numbers reproducible at any degree of parallelism.
package executor

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/govern"
	"repro/internal/index"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/storage"
	"repro/internal/value"
)

// DefaultMorselSize is the number of rows per morsel. Small enough that the
// repo's scaled-down tables still split into enough morsels to keep a
// handful of workers busy, large enough that the claim overhead (one atomic
// add per morsel) is noise.
const DefaultMorselSize = 512

// runMorsels partitions [0, n) into morsels of the given size and runs
// fn(morsel, lo, hi) across up to dop workers. Workers claim morsels from a
// shared atomic cursor, so a worker stuck on a slow morsel never stalls the
// rest. fn must only touch state owned by its morsel index.
//
// Cancellation is checked at every morsel boundary: once ctx is done (or
// any fn returns an error, or a worker panics — injected or real — which is
// recovered into an error), remaining workers stop claiming morsels, the
// pool drains, and the first error is returned after every worker has
// exited. runMorsels never leaks a goroutine and never lets a worker panic
// escape.
func runMorsels(ctx context.Context, n, dop, morselSize int, fn func(m, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if morselSize <= 0 {
		morselSize = DefaultMorselSize
	}
	run := func(m, lo, hi int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("executor: worker panic: %v", p)
			}
		}()
		faultinject.SleepIf(faultinject.MorselLatency)
		if fault := faultinject.Hit(faultinject.WorkerPanic); fault != nil {
			panic(fault)
		}
		return fn(m, lo, hi)
	}
	morsels := (n + morselSize - 1) / morselSize
	if dop > morsels {
		dop = morsels
	}
	if dop <= 1 {
		for m := 0; m < morsels; m++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			lo := m * morselSize
			hi := min(lo+morselSize, n)
			if err := run(m, lo, hi); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		cursor   atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						fail(err)
						return
					}
				}
				m := int(cursor.Add(1)) - 1
				if m >= morsels {
					return
				}
				lo := m * morselSize
				hi := min(lo+morselSize, n)
				if err := run(m, lo, hi); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// morselCount returns how many morsels [0, n) splits into.
func morselCount(n, morselSize int) int {
	if n <= 0 {
		return 0
	}
	return (n + morselSize - 1) / morselSize
}

// concatBuckets flattens per-morsel output buffers in morsel order.
func concatBuckets(buckets [][][]value.Datum) [][]value.Datum {
	total := 0
	for _, b := range buckets {
		total += len(b)
	}
	out := make([][]value.Datum, 0, total)
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}

// parallelSeqScan scans the snapshot in morsels across the worker pool,
// returning the filtered rows in storage order plus the examined row count.
// All morsels share one snapshot, so workers see a consistent table image
// without taking any lock. Each morsel probes the storage.scan fault point,
// so an injected page-read error surfaces from any worker and drains the
// pool. The default vectorized mode maps each morsel onto chunk sub-ranges
// and runs the compiled filter on the column arrays, charging the
// reservation exact per-morsel output bytes (the total is dop-invariant:
// it is the sum over matched rows either way); Runtime.RowOriented selects
// the legacy row-at-a-time evaluation with the estimate-based charge left
// to the caller.
func (ex *executor) parallelSeqScan(snap *storage.Snapshot, preds []qgm.Predicate) ([][]value.Datum, float64, error) {
	sz := ex.rt.morselSize()
	n := snap.NumRows()
	buckets := make([][][]value.Datum, morselCount(n, sz))
	var examined atomic.Int64
	rowWise := ex.rt.RowOriented
	var f *chunkFilter
	if !rowWise {
		f = compileFilter(preds, snap.Schema())
	}
	needBytes := !rowWise && ex.rt.Mem != nil
	err := runMorsels(ex.rt.ctx(), n, ex.rt.dop(), sz, func(m, lo, hi int) error {
		if err := faultinject.Hit(faultinject.StorageScan); err != nil {
			return err
		}
		var out [][]value.Datum
		cnt := 0
		if rowWise {
			snap.ScanRange(lo, hi, func(_ int, row []value.Datum) bool {
				cnt++
				if matchesAll(preds, row) {
					out = append(out, row)
				}
				return true
			})
		} else {
			var sel []int
			var bytes int64
			snap.Range(lo, hi, func(ch *storage.Chunk, _, clo, chi int) bool {
				cnt += chi - clo
				sel = f.selectRange(ch, clo, chi, sel)
				for _, i := range sel {
					row := ch.AppendRowTo(make([]value.Datum, 0, ch.NumCols()), i)
					out = append(out, row)
					if needBytes {
						bytes += govern.ExactRowBytes(row)
					}
				}
				return true
			})
			if needBytes {
				if err := ex.rt.grow(bytes); err != nil {
					return fmt.Errorf("executor: scan %s output: %w", snap.Name(), err)
				}
			}
		}
		buckets[m] = out
		examined.Add(int64(cnt))
		return nil
	})
	if err != nil {
		return nil, float64(examined.Load()), err
	}
	return concatBuckets(buckets), float64(examined.Load()), nil
}

// fnv1a hashes a join key to a build partition.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// fnv1aBytes is fnv1a over a byte slice (probe-side keys are built in a
// reused buffer and never converted to string unless they match).
func fnv1aBytes(b []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= 16777619
	}
	return h
}

// parallelHashJoin runs the build and probe phases across the worker pool.
// Build: join keys are computed morsel-parallel, then each of dop partition
// workers inserts the rows hashing to its partition — bucket lists stay in
// left-row order because every key belongs to exactly one partition and each
// partition worker walks the left side in order. Probe: right-side morsels
// look keys up in the (now read-only) partition maps and buffer matches per
// morsel, so the concatenated output order equals the serial operator's.
func (ex *executor) parallelHashJoin(left, right, rel *relation, lCols, rCols []int) error {
	dop := ex.rt.dop()
	sz := ex.rt.morselSize()
	nL := len(left.rows)

	lKeys := make([]string, nL)
	lPart := make([]uint32, nL)
	const noPart = ^uint32(0) // NULL key: joins nothing
	if err := runMorsels(ex.rt.ctx(), nL, dop, sz, func(_, lo, hi int) error {
		var kb []byte
		for i := lo; i < hi; i++ {
			var ok bool
			if kb, ok = appendJoinKeyTo(kb[:0], left.rows[i], lCols); ok {
				key := string(kb)
				lKeys[i] = key
				lPart[i] = fnv1a(key) % uint32(dop)
			} else {
				lPart[i] = noPart
			}
		}
		return nil
	}); err != nil {
		return err
	}

	parts := make([]map[string][]int, dop)
	var wg sync.WaitGroup
	var partPanic atomic.Value
	for p := 0; p < dop; p++ {
		wg.Add(1)
		go func(p uint32) {
			defer wg.Done()
			defer func() {
				if pv := recover(); pv != nil {
					partPanic.CompareAndSwap(nil, fmt.Errorf("executor: worker panic: %v", pv))
				}
			}()
			tbl := make(map[string][]int)
			for i := 0; i < nL; i++ {
				if lPart[i] == p {
					tbl[lKeys[i]] = append(tbl[lKeys[i]], i)
				}
			}
			parts[p] = tbl
		}(uint32(p))
	}
	wg.Wait()
	if err, ok := partPanic.Load().(error); ok {
		return err
	}

	nR := len(right.rows)
	buckets := make([][][]value.Datum, morselCount(nR, sz))
	if err := runMorsels(ex.rt.ctx(), nR, dop, sz, func(m, lo, hi int) error {
		var out [][]value.Datum
		var kb []byte
		for ri := lo; ri < hi; ri++ {
			rrow := right.rows[ri]
			var ok bool
			if kb, ok = appendJoinKeyTo(kb[:0], rrow, rCols); !ok {
				continue
			}
			for _, li := range parts[fnv1aBytes(kb)%uint32(dop)][string(kb)] {
				out = append(out, concatRows(left.rows[li], rrow))
			}
		}
		buckets[m] = out
		return nil
	}); err != nil {
		return err
	}
	rel.rows = concatBuckets(buckets)
	return nil
}

// parallelStableSort sorts rows in place with a parallel stable merge
// sort: dop contiguous chunks are stable-sorted concurrently, then merged
// pairwise (ties take the earlier chunk first, preserving stability). The
// result is the unique stable order, byte-identical to sort.SliceStable.
//
// A panic in the comparator (malformed plan) is captured in whichever
// worker it strikes and re-raised on the caller's goroutine after the pool
// has drained; Execute's top-level recover converts it into an error.
func parallelStableSort(rows [][]value.Datum, dop int, less func(a, b []value.Datum) bool) {
	n := len(rows)
	if dop > n/1024+1 {
		dop = n/1024 + 1 // keep chunks big enough to beat the merge overhead
	}
	if dop <= 1 || n < 2 {
		sort.SliceStable(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
		return
	}
	var (
		panicOnce sync.Once
		panicVal  any
	)
	capturePanic := func() {
		if p := recover(); p != nil {
			panicOnce.Do(func() { panicVal = p })
		}
	}
	bounds := make([]int, dop+1)
	for i := range bounds {
		bounds[i] = i * n / dop
	}
	var wg sync.WaitGroup
	for c := 0; c < dop; c++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer capturePanic()
			s := rows[lo:hi]
			sort.SliceStable(s, func(i, j int) bool { return less(s[i], s[j]) })
		}(bounds[c], bounds[c+1])
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}

	src, dst := rows, make([][]value.Datum, n)
	inRows := true
	for len(bounds) > 2 {
		newBounds := []int{0}
		var mg sync.WaitGroup
		for i := 0; i+2 < len(bounds); i += 2 {
			mg.Add(1)
			go func(lo, mid, hi int) {
				defer mg.Done()
				defer capturePanic()
				mergeRuns(dst, src, lo, mid, hi, less)
			}(bounds[i], bounds[i+1], bounds[i+2])
			newBounds = append(newBounds, bounds[i+2])
		}
		if len(bounds)%2 == 0 { // odd run count: carry the last run through
			lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
			copy(dst[lo:hi], src[lo:hi])
			newBounds = append(newBounds, hi)
		}
		mg.Wait()
		if panicVal != nil {
			panic(panicVal)
		}
		src, dst = dst, src
		inRows = !inRows
		bounds = newBounds
	}
	if !inRows {
		copy(rows, src)
	}
}

// mergeRuns stable-merges src[lo:mid] and src[mid:hi] into dst[lo:hi].
func mergeRuns(dst, src [][]value.Datum, lo, mid, hi int, less func(a, b []value.Datum) bool) {
	i, j := lo, mid
	for k := lo; k < hi; k++ {
		if i < mid && (j >= hi || !less(src[j], src[i])) {
			dst[k] = src[i]
			i++
		} else {
			dst[k] = src[j]
			j++
		}
	}
}

// parallelIndexNLProbe fans the index nested-loop probe over left-row
// morsels. Workers probe one shared snapshot of the inner table, so they
// read a consistent image lock-free; per-morsel buffers keep the output in
// left-row order, same as the serial loop. Returns the joined rows plus the
// examined and matched counts for the feedback actuals.
func (ex *executor) parallelIndexNLProbe(left *relation, inner *optimizer.Scan, snap *storage.Snapshot, ix *index.Index, driving *qgm.JoinPredicate, preds []qgm.JoinPredicate) ([][]value.Datum, float64, float64, error) {
	sz := ex.rt.morselSize()
	n := len(left.rows)
	buckets := make([][][]value.Datum, morselCount(n, sz))
	var examined, matched atomic.Int64
	keyCol := left.col(driving.LeftSlot, driving.LeftOrd)
	err := runMorsels(ex.rt.ctx(), n, ex.rt.dop(), sz, func(m, lo, hi int) error {
		var out [][]value.Datum
		exam, match := 0, 0
		for _, lrow := range left.rows[lo:hi] {
			key := lrow[keyCol]
			if key.IsNull() {
				continue
			}
			for _, pos := range ix.LookupAt(snap, key) {
				irow, err := snap.Row(pos)
				if err != nil {
					return err
				}
				exam++
				if !matchesAll(inner.Preds, irow) {
					continue
				}
				match++
				okRow := true
				for i := range preds {
					jp := preds[i]
					if jp == *driving {
						continue
					}
					lv := lrow[left.col(jp.LeftSlot, jp.LeftOrd)]
					if !lv.Equal(irow[jp.RightOrd]) {
						okRow = false
						break
					}
				}
				if okRow {
					out = append(out, concatRows(lrow, irow))
				}
			}
		}
		buckets[m] = out
		examined.Add(int64(exam))
		matched.Add(int64(match))
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return concatBuckets(buckets), float64(examined.Load()), float64(matched.Load()), nil
}

// parallelAggregate builds per-morsel partial group states and merges them
// in morsel order, reproducing the serial accumulator's first-appearance
// group order and (integer) aggregate values exactly; float SUM/AVG may
// differ by rounding since partial sums associate differently.
func (ex *executor) parallelAggregate(rel *relation) (*groupAccumulator, error) {
	sz := ex.rt.morselSize()
	n := len(rel.rows)
	partials := make([]*groupAccumulator, morselCount(n, sz))
	err := runMorsels(ex.rt.ctx(), n, ex.rt.dop(), sz, func(m, lo, hi int) error {
		ga := newGroupAccumulator(ex.blk, rel)
		for _, row := range rel.rows[lo:hi] {
			ga.absorbRow(row)
		}
		partials[m] = ga
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := partials[0]
	for _, p := range partials[1:] {
		out.mergeFrom(p)
	}
	return out, nil
}
