package server_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultinject"
	"repro/internal/server"
)

// netChaosWire is the wire-level chaos harness: the full paper workload (DML
// included) is replayed through a real TCP server whose accepted
// connections are wrapped in the fault-injected conn, while a fault-free
// embedded engine with identical configuration replays the same statements
// directly. The client neither retries nor resumes; a session is one
// connection. The contract:
//
//   - every statement that returns is byte-identical to the direct engine —
//     rows, plans, degradation flags, plan-cache-hit flags, simulated
//     timings;
//   - every failure wraps client.ErrBroken (a statement error the direct
//     engine returns too is an answer, compared like a result), and a
//     statement that broke may
//     or may not have run: the served engine's logical clock, which ticks
//     once per statement begun, says which, and the direct engine runs it
//     only if the served one did, so the two stay in lockstep (whole-table
//     canaries at the end catch a DML applied twice or lost);
//   - a re-dial serves the next statement;
//   - after the storm no server goroutine and no governor slot or memory
//     reservation is left behind.
func netChaosWire(t *testing.T, point faultinject.Point, spec faultinject.Spec) {
	t.Helper()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	cfg := serveConfig(0)
	cfg.JITS.SampleSize = 200
	cfg.Governor.MaxConcurrent = 2
	cfg.Governor.QueueDepth = 8
	served, d := loadedEngine(t, cfg, 0.002)
	direct, _ := loadedEngine(t, cfg, 0.002)

	// Deadlines tight enough that a stall (150ms sleep) trips them, loose
	// enough that honest slowness (engine exec under -race) never does.
	baseline := runtime.NumGoroutine()
	srv := server.NewWith(served, server.Config{
		IdleTimeout:  2 * time.Second,
		FrameTimeout: 100 * time.Millisecond,
		ConnWrapper:  faultinject.WrapConn,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	// Arm AFTER the engines are loaded so dataset loading runs fault-free;
	// conn faults only strike wire I/O either way.
	if err := faultinject.Arm(point, spec); err != nil {
		t.Fatal(err)
	}

	var conn *client.Conn
	dials, broken := 0, 0
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	run := func(sql string) {
		t.Helper()
		// A fault may strike the HELLO exchange too; dial until a session
		// opens.
		for conn == nil {
			if dials++; dials > 1000 {
				t.Fatalf("%q: no session after %d dials", sql, dials)
			}
			conn, _ = client.Dial(addr)
		}
		before := served.Now()
		cres, cerr := conn.Query(sql)
		if errors.Is(cerr, client.ErrBroken) {
			broken++
			_ = conn.Close()
			conn = nil
			if served.Now() != before {
				// The served engine ran it and the response was lost.
				_, _ = direct.Exec(sql)
			}
			return
		}
		dres, derr := direct.Exec(sql)
		if (derr == nil) != (cerr == nil) {
			t.Fatalf("%q: direct err %v, served err %v", sql, derr, cerr)
		}
		if derr != nil {
			// A statement error is an answer, not a failure: the same one.
			var se *client.Error
			if !errors.As(cerr, &se) || se.Message != derr.Error() {
				t.Fatalf("%q: served err %v, direct err %v", sql, cerr, derr)
			}
			return
		}
		if dres.RowsAffected != cres.RowsAffected {
			t.Fatalf("%q: rows affected %d served vs %d direct", sql, cres.RowsAffected, dres.RowsAffected)
		}
		if diff := diffWire(dres, cres); diff != "" {
			t.Fatalf("%q: %s", sql, diff)
		}
	}

	for _, st := range d.Workload(220, 99, true) {
		run(st.SQL)
	}
	// Whole-table canaries: if any DML applied twice (or got lost) on one
	// side, the table contents diverge even though every per-statement
	// comparison passed. They run until one answers.
	for _, canary := range []string{
		`SELECT c.id FROM car c WHERE c.id > 0`,
		`SELECT o.id FROM owner o WHERE o.id > 0`,
	} {
		for {
			b := broken
			run(canary)
			if broken == b {
				break
			}
		}
	}

	fired := faultinject.Fired(point)
	if fired == 0 {
		t.Fatalf("fault %s never fired — the chaos run tested nothing", point)
	}
	t.Logf("%s fired %d times; %d statements broke, %d dials", point, fired, broken, dials)

	faultinject.Reset()
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	conn = nil
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snap := served.Governor().Snapshot()
	if snap.InFlight != 0 || snap.Queued != 0 || snap.GlobalMemUsed != 0 {
		t.Fatalf("governor not drained after the storm: %+v", snap)
	}
	waitFor(t, 5*time.Second, "server goroutines drained", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

func TestNetChaosLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("network chaos replay is slow")
	}
	// Frequent small delays: must never trip a deadline, never change results.
	netChaosWire(t, faultinject.ConnLatency, faultinject.Spec{Every: 7, Offset: 3, Latency: time.Millisecond})
}

func TestNetChaosStall(t *testing.T) {
	if testing.Short() {
		t.Skip("network chaos replay is slow")
	}
	// Sleeps chosen to outlast the 100ms frame deadlines: the stalled op
	// finds its deadline expired, the server reaps the session, the client
	// sees ErrBroken and dials again.
	netChaosWire(t, faultinject.ConnStall, faultinject.Spec{Every: 47, Offset: 11, Latency: 150 * time.Millisecond})
}

func TestNetChaosTornWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("network chaos replay is slow")
	}
	netChaosWire(t, faultinject.ConnTornWrite, faultinject.Spec{Every: 41, Offset: 13})
}

func TestNetChaosReset(t *testing.T) {
	if testing.Short() {
		t.Skip("network chaos replay is slow")
	}
	netChaosWire(t, faultinject.ConnReset, faultinject.Spec{Every: 29, Offset: 5})
}

// TestNetChaosAllPoints keeps the conn fault-point list and Points() in sync
// so a future fault class cannot be added without a chaos test noticing.
func TestNetChaosAllPoints(t *testing.T) {
	want := map[faultinject.Point]bool{
		faultinject.ConnLatency:   true,
		faultinject.ConnStall:     true,
		faultinject.ConnTornWrite: true,
		faultinject.ConnReset:     true,
	}
	got := 0
	for _, p := range faultinject.Points() {
		if want[p] {
			got++
		}
	}
	if got != len(want) {
		t.Fatalf("conn fault points: registered %d of %d — %s",
			got, len(want), fmt.Sprint(faultinject.Points()))
	}
}
