// Morsels. Every operator that walks an input — base-table scan, hash-join
// build and probe, index nested-loop probe, grouped aggregation — has one
// body, written against a row range [lo, hi), and runs it
// through Runtime.forMorsels, which asks Runtime.partition how the input
// splits. A serial statement, or an input that fits one morsel, is a single
// morsel run inline on the caller's goroutine: no goroutine, one output
// buffer, one accumulator. Anything else is cut into fixed-size morsels that
// a small worker pool claims from a shared atomic cursor (the scheduling
// model of Leis et al., "Morsel-Driven Parallelism"). Output is buffered per
// morsel and concatenated in morsel order, so the emitted row order — and
// therefore every downstream result, including ORDER BY tie-breaks and
// first-appearance group order — does not depend on the partition. Neither
// do the meter charges: parallelism shrinks wall-clock time, never the
// simulated work, which is what keeps the paper's cost numbers reproducible
// at any degree of parallelism.
package executor

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// DefaultMorselSize is the number of rows per morsel. Small enough that the
// repo's scaled-down tables still split into enough morsels to keep a
// handful of workers busy, large enough that the claim overhead (one atomic
// add per morsel) is noise.
const DefaultMorselSize = 512

// partition is the one place that decides how an n-row input splits: into a
// single morsel covering all of it when the statement is serial or the input
// fits one morsel, into morselSize pieces otherwise. It returns the morsel
// size and the number of morsels that yields (at least one: an empty input
// is one empty morsel, so every operator body runs).
func (rt *Runtime) partition(n int) (size, count int) {
	if sz := rt.morselSize(); rt.dop() > 1 && n > sz {
		return sz, (n + sz - 1) / sz
	}
	return max(n, 1), 1
}

// morselCount is how many morsels forMorsels cuts an n-row input into; an
// operator sizes its per-morsel output buffers with it.
func (rt *Runtime) morselCount(n int) int {
	_, count := rt.partition(n)
	return count
}

// forMorsels runs fn over the partition of [0, n).
func (rt *Runtime) forMorsels(n int, fn func(m, lo, hi int) error) error {
	size, _ := rt.partition(n)
	return runMorsels(rt.Ctx, n, rt.dop(), size, fn)
}

// runMorsels cuts [0, n) into morsels of the given size and runs
// fn(morsel, lo, hi) for each. A single morsel runs inline on the caller's
// goroutine; several run across up to dop workers that claim morsels from a
// shared atomic cursor, so a worker stuck on a slow morsel never stalls the
// rest. fn must only touch state owned by its morsel index.
//
// Cancellation is checked at every morsel boundary: once ctx is done (or
// any fn returns an error, or a morsel panics — injected or real — which is
// recovered into an error), remaining workers stop claiming morsels, the
// pool drains, and the first error is returned after every worker has
// exited. runMorsels never leaks a goroutine and never lets a panic escape.
func runMorsels(ctx context.Context, n, dop, morselSize int, fn func(m, lo, hi int) error) error {
	if morselSize <= 0 {
		morselSize = DefaultMorselSize
	}
	morsels := max((n+morselSize-1)/morselSize, 1)
	run := func(m int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("executor: worker panic: %v", p)
			}
		}()
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		faultinject.SleepIf(faultinject.MorselLatency)
		if fault := faultinject.Hit(faultinject.WorkerPanic); fault != nil {
			panic(fault)
		}
		lo := m * morselSize
		return fn(m, lo, min(lo+morselSize, n))
	}
	if morsels == 1 {
		return run(0)
	}
	var (
		cursor   atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := max(min(dop, morsels), 1); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				m := int(cursor.Add(1)) - 1
				if m >= morsels {
					return
				}
				if err := run(m); err != nil {
					errOnce.Do(func() { firstErr = err })
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// flatten concatenates per-morsel position buffers in morsel order; a
// single morsel's buffer is the output, uncopied.
func flatten(buckets [][]int32) []int32 {
	if len(buckets) == 1 {
		return buckets[0]
	}
	total := 0
	for _, b := range buckets {
		total += len(b)
	}
	out := make([]int32, 0, total)
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}

// parallelStableSort sorts rows (row numbers, in practice) in place with a
// parallel stable merge sort: dop contiguous chunks are stable-sorted
// concurrently, then merged pairwise (ties take the earlier chunk first,
// preserving stability). The result is the unique stable order,
// byte-identical to sort.SliceStable.
//
// A panic in the comparator (malformed plan) is captured in whichever
// worker it strikes and re-raised on the caller's goroutine after the pool
// has drained; Execute's top-level recover converts it into an error.
func parallelStableSort[T any](rows []T, dop int, less func(a, b T) bool) {
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

	src, dst := rows, make([]T, n)
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
func mergeRuns[T any](dst, src []T, lo, mid, hi int, less func(a, b T) bool) {
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
