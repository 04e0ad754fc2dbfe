package govern

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// waitQueued polls until the gate reports the wanted queue depth; tests use
// it to sequence waiter arrival deterministically.
func waitQueued(t *testing.T, g *Gate, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, queued, _, _ := g.depths()
		if queued == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (now %d)", want, queued)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGateImmediateAdmission(t *testing.T) {
	g := NewGate(2, 4)
	t1, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t2, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if inFlight, _, _, _ := g.depths(); inFlight != 2 {
		t.Fatalf("inFlight=%d, want 2", inFlight)
	}
	t1.Release()
	t1.Release() // idempotent: must not free a second slot
	t2.Release()
	if inFlight, _, _, _ := g.depths(); inFlight != 0 {
		t.Fatalf("inFlight=%d after releases, want 0", inFlight)
	}
	if got := g.admitted.Load(); got != 2 {
		t.Fatalf("admitted=%d, want 2", got)
	}
}

func TestGateFIFOOrder(t *testing.T) {
	g := NewGate(1, 8)
	holder, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan int, 3)
	var wg sync.WaitGroup
	for i := 1; i <= 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := g.Acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			tk.Release()
		}()
		waitQueued(t, g, int64(i)) // arrival order is the queue order
	}

	holder.Release()
	wg.Wait()
	close(order)
	want := 1
	for got := range order {
		if got != want {
			t.Fatalf("admission order: got waiter %d, want %d", got, want)
		}
		want++
	}
}

func TestGateQueueFullShed(t *testing.T) {
	g := NewGate(1, 1)
	holder, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk, err := g.Acquire(ctx) // fills the one queue slot
		if err == nil {
			tk.Release()
		}
	}()
	waitQueued(t, g, 1)

	_, err = g.Acquire(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full acquire: err=%v, want ErrOverloaded", err)
	}
	if got := g.shed[shedQueueFull].Load(); got != 1 || g.shedTotal() != 1 {
		t.Fatalf("shed as queue_full=%d of %d, want 1 of 1", got, g.shedTotal())
	}
	holder.Release()
	wg.Wait()
}

func TestGateDeadlinePredictedShed(t *testing.T) {
	g := NewGate(1, 8)
	g.avgService = time.Hour // as if recent statements each held the slot for an hour
	holder, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = g.Acquire(ctx)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("predicted-miss acquire: err=%v, want ErrOverloaded", err)
	}
	// The shed must be immediate — the point is not burning the deadline in
	// the queue.
	if waited := time.Since(start); waited > 40*time.Millisecond {
		t.Fatalf("predicted shed waited %v, want immediate", waited)
	}
	if _, queued, _, _ := g.depths(); queued != 0 {
		t.Fatalf("shed statement left a queue entry: queued=%d", queued)
	}
}

func TestGateDeadlineExpiresWhileQueued(t *testing.T) {
	g := NewGate(1, 8) // avgService zero: no up-front prediction, so it queues
	holder, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = g.Acquire(ctx)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("deadline-in-queue acquire: err=%v, want ErrOverloaded", err)
	}
	if _, queued, _, _ := g.depths(); queued != 0 {
		t.Fatalf("expired waiter left a queue entry: queued=%d", queued)
	}
}

func TestGateCancelWhileQueued(t *testing.T) {
	g := NewGate(1, 8)
	holder, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := g.Acquire(ctx)
		errCh <- err
	}()
	waitQueued(t, g, 1)
	cancel()
	err = <-errCh
	// A user cancel is not overload: the typed shed error must not appear.
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: err=%v, want context.Canceled", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatalf("cancelled acquire misreported as overload: %v", err)
	}
	if got := g.shedTotal(); got != 0 {
		t.Fatalf("cancel counted as shed: shed=%d", got)
	}
	if got := g.cancelled.Load(); got != 1 {
		t.Fatalf("cancelled=%d, want 1", got)
	}

	// No leak: the slot still flows to the next arrival.
	holder.Release()
	tk, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire after cancelled waiter: %v", err)
	}
	tk.Release()
	if inFlight, queued, _, _ := g.depths(); inFlight != 0 || queued != 0 {
		t.Fatalf("state after cancel: inFlight=%d queued=%d, want 0/0", inFlight, queued)
	}
}

// TestGateCancelRaceNoLeak hammers the cancel-while-queued path — including
// the narrow window where a waiter is granted the slot in the same instant
// its context ends — and then proves no slot leaked. Run with -race.
func TestGateCancelRaceNoLeak(t *testing.T) {
	g := NewGate(2, 16)
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*100*time.Microsecond)
			defer cancel()
			tk, err := g.Acquire(ctx)
			if err == nil {
				time.Sleep(50 * time.Microsecond)
				tk.Release()
			}
		}()
		if i%3 == 0 {
			time.Sleep(20 * time.Microsecond)
		}
	}
	wg.Wait()

	if inFlight, queued, _, _ := g.depths(); inFlight != 0 || queued != 0 {
		t.Fatalf("leaked after race: inFlight=%d queued=%d", inFlight, queued)
	}
	// Both slots must still be acquirable immediately.
	t1, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("slot 1 after race: %v", err)
	}
	t2, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("slot 2 after race: %v", err)
	}
	t1.Release()
	t2.Release()
}
