package engine_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/debugserver"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// TestCloseRejectsExec: Close is idempotent and flips every Exec variant to
// ErrClosed.
func TestCloseRejectsExec(t *testing.T) {
	e := engine.New(engine.Config{})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := e.Exec(`SELECT 1 FROM t`); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("Exec after Close: %v, want ErrClosed", err)
	}
	if _, err := e.ExecUnboxed(context.Background(), `SELECT 1 FROM t`, engine.ExecOptions{}); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("ExecUnboxed after Close: %v, want ErrClosed", err)
	}
}

// TestDebugReadsDuringCloseLeakNothing closes the engine while debug-server
// reads of the flight recorder and archive are in flight: every request must
// complete without a race (run under -race) — before, during and after Close
// the endpoints answer from consistent snapshots — and once the server shuts
// down the goroutine count settles back, so neither the recorder nor the
// server pinned anything.
func TestDebugReadsDuringCloseLeakNothing(t *testing.T) {
	cfg := engine.Config{Parallelism: 4, FlightRecorderCapacity: -1}
	cfg.JITS.Enabled = true
	cfg.JITS.SMax = 0.5
	cfg.JITS.SampleSize = 400
	cfg.JITS.Seed = 3
	e := engine.New(cfg)
	d, err := workload.Load(e, workload.Spec{Scale: 0.002, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range d.Queries(5, 21) {
		if _, err := e.Exec(st.SQL); err != nil {
			t.Fatal(err)
		}
	}

	before := runtime.NumGoroutine()
	srv := debugserver.New(e)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Hammer the read endpoints from several goroutines, and close the
	// engine midway through the storm.
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			client := &http.Client{Timeout: 5 * time.Second}
			defer client.CloseIdleConnections()
			for j := 0; j < 50; j++ {
				for _, path := range []string{"/debug/queries", "/debug/archive", "/debug/health"} {
					resp, err := client.Get("http://" + addr + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d", path, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// After Close the health endpoint must say so, not hang or crash.
	resp, err := http.Get("http://" + addr + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// A kept-alive connection (or one dialled and not used yet, which the
	// server counts as busy) would outlive srv.Close below and read as a leak.
	http.DefaultClient.CloseIdleConnections()
	if !strings.Contains(string(body), `"status": "closed"`) {
		t.Fatalf("/debug/health after Close = %s, want status closed", body)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before debug server, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelledParallelQueryLeaksNoGoroutines cancels queries mid-flight —
// with injected morsel latency so workers are genuinely asleep when the
// deadline lands — and verifies the worker pools drain completely: the
// goroutine count settles back to the pre-query level.
func TestCancelledParallelQueryLeaksNoGoroutines(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	cfg := engine.Config{Parallelism: 8}
	cfg.JITS.Enabled = true
	cfg.JITS.SMax = 0.5
	cfg.JITS.SampleSize = 400
	cfg.JITS.Seed = 3
	e := engine.New(cfg)
	d, err := workload.Load(e, workload.Spec{Scale: 0.002, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	stmts := d.Queries(6, 17)

	// Warm up once fault-free so lazy runtime goroutines don't count as leaks.
	if _, err := e.Exec(stmts[0].SQL); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	if err := faultinject.Arm(faultinject.MorselLatency, faultinject.Spec{Every: 1, Latency: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for _, st := range stmts {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
		if _, err := e.ExecUnboxed(ctx, st.SQL, engine.ExecOptions{}); err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%q: %v, want deadline exceeded", st.SQL, err)
			}
			cancelled++
		}
		cancel()
	}
	faultinject.Reset()
	if cancelled == 0 {
		t.Fatal("no query was cancelled — the leak check tested nothing")
	}

	// Pools drain synchronously before Exec returns, but give the runtime a
	// few scheduler rounds to retire exiting goroutines before declaring a
	// leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before cancelled queries, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
