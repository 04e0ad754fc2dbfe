package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/govern"
)

// waitSnapshot polls the governor snapshot until cond holds; the admission
// tests use it to sequence a queued statement deterministically.
func waitSnapshot(t *testing.T, e *Engine, what string, cond func(govern.Snapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cond(e.Governor().Snapshot()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("governor never reached: %s (now %+v)", what, e.Governor().Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatementMemoryBudgetBounded is the memory-bound proof: calibrate the
// peak of a buffering-heavy statement on an unbudgeted engine, then run the
// same statement under half that budget. The statement must fail with the
// typed budget error while trivial statements still succeed under the same
// budget with their recorded peak inside it — graceful, bounded, typed.
func TestStatementMemoryBudgetBounded(t *testing.T) {
	const heavy = `SELECT c.make, COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id GROUP BY c.make`
	const light = `SELECT id FROM car WHERE make = 'BMW' AND year > 2005`

	e := seedEngine(t, Config{FlightRecorderCapacity: -1})
	if _, err := e.Exec(heavy); err != nil {
		t.Fatal(err)
	}
	recs := e.Recorder().Last(1)
	if len(recs) != 1 || recs[0].MemPeakBytes == 0 {
		t.Fatal("unbudgeted run recorded no memory peak — accounting is dead")
	}
	peak := recs[0].MemPeakBytes

	budget := peak / 2
	cfg := Config{FlightRecorderCapacity: -1}
	cfg.Governor.StatementMemBudgetBytes = budget
	cfg.Governor.GlobalMemBudgetBytes = 8 * peak
	eb := seedEngine(t, cfg)

	_, err := eb.Exec(heavy)
	if err == nil {
		t.Fatalf("statement with calibrated peak %d ran under a %d budget without failing", peak, budget)
	}
	if !errors.Is(err, govern.ErrMemoryBudget) {
		t.Fatalf("over-budget statement error not typed: %v", err)
	}

	res, err := eb.Exec(light)
	if err != nil {
		t.Fatalf("trivial statement under the same budget: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("trivial statement returned nothing")
	}
	lrec := eb.Recorder().Last(1)[0]
	if lrec.MemPeakBytes <= 0 || lrec.MemPeakBytes > budget {
		t.Fatalf("successful statement peak %d outside (0, %d]", lrec.MemPeakBytes, budget)
	}

	// Win or lose, every reservation must have been returned to the pool.
	if used := eb.Governor().Snapshot().GlobalMemUsed; used != 0 {
		t.Fatalf("global pool holds %d bytes after statements finished", used)
	}
}

// TestSamplingShrinksToBudget: a budget generous enough for the executor but
// too small for the configured sample size must shrink the sample — the
// statement succeeds, sampling still happens, nothing errors.
func TestSamplingShrinksToBudget(t *testing.T) {
	cfg := Config{FlightRecorderCapacity: -1}
	cfg.JITS = core.DefaultConfig()
	cfg.JITS.SampleSize = 1000 // the full car table: ~288 KiB of sample buffer
	cfg.Governor.StatementMemBudgetBytes = 200 << 10
	e := seedEngine(t, cfg)

	res, err := e.Exec(`SELECT id FROM car WHERE make = 'Toyota' AND year > 1998`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prepare == nil || res.Prepare.CollectedTables() == 0 {
		t.Fatal("no table was sampled — the budget should shrink the sample, not kill it")
	}
	for _, tr := range res.Prepare.Tables {
		if tr.Collected && tr.SampleRows >= 1000 {
			t.Fatalf("sample of %d rows cannot have fit the 200 KiB budget", tr.SampleRows)
		}
	}
}

// TestAdmissionOverloadShedsTyped is the overload proof: with one admission
// slot held and a one-deep queue occupied, the next arrival must be shed
// immediately with the typed overload error, and the queued statement must
// run to completion once the slot frees. `make race` runs it under the detector.
func TestAdmissionOverloadShedsTyped(t *testing.T) {
	cfg := Config{}
	cfg.Governor.MaxConcurrent = 1
	cfg.Governor.QueueDepth = 1
	e := seedEngine(t, cfg)

	ticket, err := e.Governor().Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	queuedErr := make(chan error, 1)
	go func() {
		_, err := e.Exec(`SELECT id FROM car WHERE make = 'Honda'`)
		queuedErr <- err
	}()
	waitSnapshot(t, e, "one queued statement", func(s govern.Snapshot) bool { return s.Queued == 1 })

	_, err = e.Exec(`SELECT id FROM car WHERE make = 'Toyota'`)
	if !errors.Is(err, govern.ErrOverloaded) {
		t.Fatalf("arrival at a full queue: err=%v, want ErrOverloaded", err)
	}
	snap := e.Governor().Snapshot()
	if snap.Shed != 1 {
		t.Fatalf("shed=%d, want 1", snap.Shed)
	}
	if !e.Governor().Saturated() {
		t.Fatal("full queue not reported as saturated (health endpoint would lie)")
	}

	ticket.Release()
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued statement after slot freed: %v", err)
	}
	waitSnapshot(t, e, "drained", func(s govern.Snapshot) bool { return s.InFlight == 0 && s.Queued == 0 })
	if e.Governor().Saturated() {
		t.Fatal("drained governor still reports saturated")
	}
}

// TestCancelWhileQueuedIsNotOverload is the cancellation regression: a
// statement cancelled while waiting for admission must surface the caller's
// context error — not the typed overload error — and must not leak its slot
// or count as shed.
func TestCancelWhileQueuedIsNotOverload(t *testing.T) {
	cfg := Config{}
	cfg.Governor.MaxConcurrent = 1
	cfg.Governor.QueueDepth = 4
	e := seedEngine(t, cfg)

	ticket, err := e.Governor().Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		_, err := e.ExecUnboxed(ctx, `SELECT id FROM car WHERE make = 'Honda'`, ExecOptions{})
		queuedErr <- err
	}()
	waitSnapshot(t, e, "one queued statement", func(s govern.Snapshot) bool { return s.Queued == 1 })
	cancel()

	err = <-queuedErr
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-while-queued error: %v, want context.Canceled", err)
	}
	if errors.Is(err, govern.ErrOverloaded) {
		t.Fatalf("user cancel misreported as overload: %v", err)
	}
	snap := e.Governor().Snapshot()
	if snap.Shed != 0 {
		t.Fatalf("cancel counted as shed: %d", snap.Shed)
	}

	// No leak: the released slot must admit the next statement promptly.
	ticket.Release()
	if _, err := e.Exec(`SELECT id FROM car WHERE make = 'Toyota'`); err != nil {
		t.Fatalf("statement after cancelled waiter: %v", err)
	}
	waitSnapshot(t, e, "drained", func(s govern.Snapshot) bool { return s.InFlight == 0 && s.Queued == 0 })
}

// TestAdmissionAccountsEveryStatement is the overload accounting invariant:
// whatever the interleaving, every statement is either admitted or shed —
// admitted + shed = statements on the governor's own counters, shed exactly
// the arrivals that saw ErrOverloaded — a lone client never sheds, and
// eight clients at a two-slot gate leave nothing in flight or queued.
func TestAdmissionAccountsEveryStatement(t *testing.T) {
	cfg := Config{}
	cfg.Governor.MaxConcurrent = 2
	cfg.Governor.QueueDepth = 4
	e := seedEngine(t, cfg)
	stmts := make([]string, 40)
	for i := range stmts {
		stmts[i] = fmt.Sprintf(`SELECT c.make, COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND o.salary > %d GROUP BY c.make`, 30000+100*i)
	}

	for _, clients := range []int{1, 8} {
		before := e.Governor().Snapshot()
		var next, shed atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(len(stmts)); i = next.Add(1) - 1 {
					_, err := e.Exec(stmts[i])
					switch {
					case errors.Is(err, govern.ErrOverloaded):
						shed.Add(1)
					case err != nil:
						t.Errorf("admitted statement failed: %v", err)
					}
				}
			}()
		}
		wg.Wait()
		after := e.Governor().Snapshot()
		admitted, shedN := after.Admitted-before.Admitted, after.Shed-before.Shed
		if admitted+shedN != int64(len(stmts)) || shedN != shed.Load() {
			t.Fatalf("%d clients: admitted %d + shed %d != %d statements, or shed != %d ErrOverloaded returns",
				clients, admitted, shedN, len(stmts), shed.Load())
		}
		if clients == 1 && shedN != 0 {
			t.Fatalf("a lone client was shed %d times", shedN)
		}
		if after.InFlight != 0 || after.Queued != 0 {
			t.Fatalf("%d clients: %d in flight, %d queued after every statement returned", clients, after.InFlight, after.Queued)
		}
		t.Logf("%d clients: admitted %d, shed %d", clients, admitted, shedN)
	}
}

// TestBreakerTripsEndToEnd drives the full loop at the shipped breaker tuning:
// slow sampling (injected per-chunk latency) trips the breaker, later
// statements compile catalog-only with the breaker degradation counted, and
// the state is visible through the governor snapshot and the SHOW METRICS
// gauge.
func TestBreakerTripsEndToEnd(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	cfg := Config{}
	cfg.JITS = core.DefaultConfig()
	cfg.JITS.SampleSize = 200
	cfg.JITS.ForceCollect = true // every statement samples its table
	cfg.Governor.Breaker = govern.BreakerConfig{LatencyThreshold: time.Millisecond}
	e := seedEngine(t, cfg)
	// A frozen clock keeps the breaker open for the rest of the test once it
	// trips.
	frozen := time.Now()
	e.Governor().SamplingBreaker().SetClock(func() time.Time { return frozen })

	// Every sampling chunk sleeps 2ms — far over the 1ms threshold — so the
	// breaker trips once its window holds its minimum of sampled tables.
	if err := faultinject.Arm(faultinject.MorselLatency, faultinject.Spec{Every: 1, Latency: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	for year := 1990; year < 2010 && e.Governor().Snapshot().BreakerState != "open"; year++ {
		sql := fmt.Sprintf(`SELECT id FROM car WHERE make = 'Toyota' AND year > %d`, year)
		if _, err := e.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if got := e.Governor().Snapshot().BreakerState; got != "open" {
		t.Fatalf("breaker state %q after sustained slow sampling, want open", got)
	}
	faultinject.Reset() // the latency did its job; keep the rest fast

	// A fresh statement that wants sampling must compile catalog-only.
	res, err := e.Exec(`SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Boston' AND c.year > 2001`)
	if err != nil {
		t.Fatalf("statement under an open breaker must degrade, not fail: %v", err)
	}
	if res.Prepare == nil || !res.Prepare.Degraded {
		t.Fatal("open breaker did not degrade the preparation")
	}
	sawReason := false
	for _, tr := range res.Prepare.Tables {
		if strings.Contains(tr.DegradeReason, "circuit breaker") {
			sawReason = true
		}
	}
	if !sawReason {
		t.Fatalf("no table reports the breaker degrade reason: %+v", res.Prepare.Tables)
	}
	if got := e.Degradation().BreakerOpen; got == 0 {
		t.Fatal("DegradationCounts.BreakerOpen not bumped")
	}

	// The gauge behind SHOW METRICS must read 2 (open).
	mres, err := e.Exec(`SHOW METRICS`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range mres.Rows {
		if row[0].Str() == "govern_breaker_state" {
			found = true
			if v, _ := row[2].AsFloat(); v != 2 {
				t.Fatalf("govern_breaker_state = %v, want 2 (open)", v)
			}
		}
	}
	if !found {
		t.Fatal("govern_breaker_state missing from SHOW METRICS")
	}
}
