// Package morsel is the one fan-out the engine has: a range [0, n) cut into
// fixed-size morsels that a small worker pool claims from a shared atomic
// cursor (Leis et al., "Morsel-Driven Parallelism"). The executor's operators
// and JITS sampling both run on it, so the two fault points every morsel
// passes, the stop-on-first-failure rule and the panic capture exist once.
// Beside owns the other goroutines: the maintenance left running beside the
// next statement.
package morsel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// DefaultSize is the number of rows per morsel: small enough that the repo's
// scaled-down tables still keep a handful of workers busy, large enough that
// the claim (one atomic add per morsel) is noise.
const DefaultSize = 512

// PanicError is a panic — injected or real — recovered inside a morsel.
type PanicError struct{ Val any }

func (p *PanicError) Error() string { return fmt.Sprintf("worker panic: %v", p.Val) }

// Run cuts [0, n) into morsels of the given positive size (at least one: an
// empty range is one empty morsel, so every operator body runs) and calls
// fn(morsel, lo, hi) for each. With one worker's worth of work — dop <= 1 or
// a single morsel — they run inline on the caller's goroutine, in order;
// otherwise up to dop workers claim them from a shared atomic cursor, so a
// slow morsel never stalls the rest. fn must only touch state its morsel owns.
//
// A non-nil ctx is checked at every morsel boundary. Once it is done, or an
// fn returns an error, or a morsel panics (recovered into a *PanicError), no
// further morsel is claimed, the pool drains, and the first error is returned
// after every worker has exited: no goroutine leaks and no panic escapes.
func Run(ctx context.Context, n, dop, size int, fn func(m, lo, hi int) error) error {
	morsels := max((n+size-1)/size, 1)
	run := func(m int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = &PanicError{Val: p}
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
		lo := m * size
		return fn(m, lo, min(lo+size, n))
	}
	workers := min(dop, morsels)
	if workers <= 1 {
		for m := 0; m < morsels; m++ {
			if err := run(m); err != nil {
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
	for ; workers > 0; workers-- {
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

// Beside owns the maintenance statements leave running on goroutines of
// their own when they return (an index catch-up, a histogram fit): Begin
// counts one more unless Close has run, and Close refuses every later Begin
// before it waits, under one mutex, so no work starts once Close has
// returned. The zero Beside is ready to use; it must not be copied.
type Beside struct {
	mu      sync.Mutex
	closed  bool
	running sync.WaitGroup
}

// Begin counts one more goroutine of maintenance, whose End the caller owes,
// and reports true; after Close it counts nothing and reports false, and
// the caller does the work itself or leaves it.
func (b *Beside) Begin() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	b.running.Add(1)
	return true
}

// End ends one goroutine Begin counted.
func (b *Beside) End() { b.running.Done() }

// Wait returns when every goroutine counted so far has ended.
func (b *Beside) Wait() { b.running.Wait() }

// Close refuses every later Begin, then waits for the goroutines counted.
// It is idempotent.
func (b *Beside) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.running.Wait()
}
