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
