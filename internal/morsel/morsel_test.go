package morsel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestRunVisitsEveryIndexOnce: every index of [0, n) lands in exactly one
// morsel for a spread of sizes and worker counts — n smaller than a morsel,
// more workers than morsels — and an empty range is one empty morsel.
func TestRunVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 1000} {
		for _, dop := range []int{0, 1, 2, 7, 32} {
			var mu sync.Mutex
			seen := make([]int, n)
			calls := 0
			err := Run(context.Background(), n, dop, 16, func(m, lo, hi int) error {
				mu.Lock()
				defer mu.Unlock()
				calls++
				if lo != m*16 || hi > n || hi-lo > 16 {
					t.Errorf("n=%d dop=%d: morsel %d is [%d, %d)", n, dop, m, lo, hi)
				}
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d dop=%d: %v", n, dop, err)
			}
			if want := max((n+15)/16, 1); calls != want {
				t.Errorf("n=%d dop=%d: %d morsels ran, want %d", n, dop, calls, want)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d dop=%d: index %d visited %d times", n, dop, i, c)
				}
			}
		}
	}
}

// TestRunSerialIsInlineAndOrdered: one worker's worth of work runs on the
// caller's goroutine, in morsel order, and stops at the first error.
func TestRunSerialIsInlineAndOrdered(t *testing.T) {
	boom := errors.New("boom")
	var order []int // unsynchronized on purpose: -race proves no goroutine ran it
	err := Run(nil, 100, 1, 10, func(m, _, _ int) error {
		order = append(order, m)
		if m == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || len(order) != 4 || order[0] != 0 || order[3] != 3 {
		t.Fatalf("err = %v, morsels run = %v; want boom after 0..3", err, order)
	}
}

// TestRunStopsDrainsAndReportsFirstFailure: an error or a panic in one morsel
// stops the rest from being claimed, every worker exits before Run returns,
// and a panic comes back as a *PanicError carrying the recovered value.
func TestRunStopsDrainsAndReportsFirstFailure(t *testing.T) {
	boom := errors.New("boom")
	for _, fail := range []func() error{
		func() error { return boom },
		func() error { panic(boom) },
	} {
		var running, ran atomic.Int64
		err := Run(context.Background(), 10_000, 4, 1, func(m, _, _ int) error {
			running.Add(1)
			defer running.Add(-1)
			ran.Add(1)
			if m == 5 {
				return fail()
			}
			time.Sleep(10 * time.Microsecond)
			return nil
		})
		var pe *PanicError
		if !errors.Is(err, boom) && !(errors.As(err, &pe) && pe.Val == boom) {
			t.Fatalf("err = %v, want boom returned or recovered", err)
		}
		if running.Load() != 0 {
			t.Fatalf("%d morsels still running after Run returned", running.Load())
		}
		if ran.Load() > 1000 {
			t.Errorf("%d of 10000 morsels ran after the failure at morsel 5", ran.Load())
		}
	}
}

// TestRunFaultPointsAndCancellation: each morsel passes the context check,
// then the latency point, then the panic point — once each — before its body.
func TestRunFaultPointsAndCancellation(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Arm(faultinject.MorselLatency, faultinject.Spec{Every: 1, Latency: time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), 64, 1, 16, func(_, _, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if fired := faultinject.Fired(faultinject.MorselLatency); fired != 4 {
		t.Errorf("latency point fired %d times over 4 morsels", fired)
	}

	if err := faultinject.Arm(faultinject.WorkerPanic, faultinject.Spec{Every: 1}); err != nil {
		t.Fatal(err)
	}
	bodies := 0
	err := Run(context.Background(), 64, 1, 16, func(_, _, _ int) error { bodies++; return nil })
	var pe *PanicError
	if !errors.As(err, &pe) || bodies != 0 {
		t.Fatalf("err = %v after %d bodies; want the injected panic before any body", err, bodies)
	}
	var fault *faultinject.Fault
	if cause, ok := pe.Val.(error); !ok || !errors.As(cause, &fault) || fault.Point != faultinject.WorkerPanic {
		t.Errorf("recovered value = %#v, want the injected fault", pe.Val)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := faultinject.Fired(faultinject.WorkerPanic)
	if err := Run(ctx, 64, 4, 16, func(_, _, _ int) error { bodies++; return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if bodies != 0 || faultinject.Fired(faultinject.WorkerPanic) != before {
		t.Error("a cancelled context must stop a morsel before its fault points and its body")
	}
}
