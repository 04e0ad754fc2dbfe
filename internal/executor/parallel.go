// Morsels. Every operator that walks an input — base-table scan, hash-join
// build and probe, index nested-loop probe, grouped aggregation — has one
// body, written against a row range [lo, hi), and runs it through
// Runtime.forMorsels, which asks Runtime.partition how the input splits. A
// serial statement, or an input that fits one morsel, is a single morsel run
// inline: no goroutine, one output buffer, one accumulator. Anything else is
// cut into fixed-size morsels on the shared runner (internal/morsel). Output
// is buffered per morsel and concatenated in morsel order, so the emitted row
// order — ORDER BY tie-breaks and first-appearance group order included —
// does not depend on the partition. Neither do the meter charges: parallelism
// shrinks wall-clock time, never the simulated work.
package executor

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/morsel"
)

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
	return rt.runMorsels(n, size, fn)
}

// runMorsels runs fn over [0, n) in morsels of the given size on the shared
// runner (internal/morsel): cancellation is checked at every morsel boundary
// and the first error — a morsel's own, the context's, or a recovered panic,
// injected or real — is returned once the pool has drained.
func (rt *Runtime) runMorsels(n, size int, fn func(m, lo, hi int) error) error {
	err := morsel.Run(rt.Ctx, n, rt.dop(), size, fn)
	if err != nil {
		if pe := (*morsel.PanicError)(nil); errors.As(err, &pe) {
			return fmt.Errorf("executor: %w", pe)
		}
	}
	return err
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
// parallel stable merge sort: up to dop contiguous chunks are stable-sorted
// concurrently, then merged pairwise (ties take the earlier chunk first,
// preserving stability), each round one morsel per chunk or pair on the
// statement's runner. The result is the unique stable order, byte-identical
// to sort.SliceStable. A comparator panic (malformed plan) inside a worker
// comes back as the runner's error; on the serial path it reaches Execute's
// own recover.
func parallelStableSort[T any](rt *Runtime, rows []T, less func(a, b T) bool) error {
	n, dop := len(rows), rt.dop()
	if dop > n/1024+1 {
		dop = n/1024 + 1 // keep chunks big enough to beat the merge overhead
	}
	if dop <= 1 || n < 2 {
		sort.SliceStable(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
		return nil
	}
	bounds := make([]int, dop+1)
	for i := range bounds {
		bounds[i] = i * n / dop
	}
	if err := rt.runMorsels(dop, 1, func(c, _, _ int) error {
		s := rows[bounds[c]:bounds[c+1]]
		sort.SliceStable(s, func(i, j int) bool { return less(s[i], s[j]) })
		return nil
	}); err != nil {
		return err
	}

	src, dst := rows, make([]T, n)
	for len(bounds) > 2 {
		runs := len(bounds) - 1
		if err := rt.runMorsels(runs/2, 1, func(p, _, _ int) error {
			mergeRuns(dst, src, bounds[2*p], bounds[2*p+1], bounds[2*p+2], less)
			return nil
		}); err != nil {
			return err
		}
		merged := make([]int, 0, runs/2+2)
		for i := 0; i <= runs; i += 2 {
			merged = append(merged, bounds[i])
		}
		if runs%2 == 1 { // odd run count: carry the last run through
			lo, hi := bounds[runs-1], bounds[runs]
			copy(dst[lo:hi], src[lo:hi])
			merged = append(merged, hi)
		}
		src, dst, bounds = dst, src, merged
	}
	if &src[0] != &rows[0] {
		copy(rows, src)
	}
	return nil
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
