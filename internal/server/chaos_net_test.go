package server_test

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
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
//   - after the storm no server goroutine and no memory reservation is left
//     behind.
//
// It returns how many of the point's fires landed in each kind of server
// conn op.
func netChaosWire(t *testing.T, point faultinject.Point, spec faultinject.Spec) opCounts {
	t.Helper()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	cfg := serveConfig(0)
	cfg.JITS.SampleSize = 200
	served, d := loadedEngine(t, cfg, 0.002)
	direct, _ := loadedEngine(t, cfg, 0.002)

	// Deadlines tight enough that a stall (150ms sleep) trips them, loose
	// enough that honest slowness (engine exec under -race) never does.
	baseline := runtime.NumGoroutine()
	var fires opFires
	srv := server.NewWith(served, server.Config{
		IdleTimeout:  2 * time.Second,
		FrameTimeout: 100 * time.Millisecond,
		ConnWrapper: func(c net.Conn) net.Conn {
			return &firesByOp{Conn: faultinject.WrapConn(c), point: point, fires: &fires}
		},
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
	// Read the attribution before the reset below rewinds the fire count
	// under the ops still blocked in a read.
	byOp := opCounts{fires.header.Load(), fires.payload.Load(), fires.write.Load()}
	t.Logf("%s fired %d times (%v); %d statements broke, %d dials", point, fired, byOp, broken, dials)

	faultinject.Reset()
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	conn = nil
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	requireDrained(t, served, "the storm")
	waitFor(t, 5*time.Second, "server goroutines drained", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
	return byOp
}

// opFires counts a fault point's fires by the server conn op they landed
// in: a frame's 4-byte length prefix (the idle read between frames), the
// rest of a frame, and a response write.
type opFires struct{ header, payload, write atomic.Int64 }

// opCounts is a reading of opFires.
type opCounts struct{ header, payload, write int64 }

func (o opCounts) String() string {
	return fmt.Sprintf("%d header reads, %d payload reads, %d writes", o.header, o.payload, o.write)
}

// firesByOp attributes the point's fires to the op they landed in: a fire
// is counted against a Read or Write when the point's fire count moved
// while the op ran. Sessions overlap only while a reaped one winds down, so
// a fire may rarely count twice; one in an op still blocked when the counts
// are read is not counted yet.
type firesByOp struct {
	net.Conn
	point faultinject.Point
	fires *opFires
}

func (f *firesByOp) Read(p []byte) (int, error) {
	before := faultinject.Fired(f.point)
	n, err := f.Conn.Read(p)
	if len(p) == 4 {
		f.fires.header.Add(faultinject.Fired(f.point) - before)
	} else {
		f.fires.payload.Add(faultinject.Fired(f.point) - before)
	}
	return n, err
}

func (f *firesByOp) Write(p []byte) (int, error) {
	before := faultinject.Fired(f.point)
	n, err := f.Conn.Write(p)
	f.fires.write.Add(faultinject.Fired(f.point) - before)
	return n, err
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
	// Sleeps chosen to outlast the 100ms frame deadlines: a stalled payload
	// read or response write finds its deadline expired, the server reaps
	// the session, the client sees ErrBroken and dials again. A stalled
	// header read sits inside the 2s idle deadline and breaks nothing.
	//
	// A statement is three server conn ops (header read, payload read,
	// response write), and a stall on a payload read cuts its statement to
	// two. A period ≡ 2 (mod 3) therefore locks onto payload reads once one
	// is hit, and ≡ 0 onto whatever op it first hits; 46 ≡ 1 alternates
	// header and payload reads, and the offset puts the first fire on a
	// response write.
	got := netChaosWire(t, faultinject.ConnStall, faultinject.Spec{Every: 46, Offset: 11, Latency: 150 * time.Millisecond})
	if got.header == 0 || got.payload == 0 || got.write == 0 {
		t.Fatalf("stall fires landed on %v: the schedule must reach all three ops", got)
	}
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
	// Every reset ends its session, and the client's next one starts on a
	// frame boundary: a HELLO and then each statement are three conn ops
	// (header read, payload read, response write) counted from the reset. So
	// after the first fire, which the offset places, the period alone picks
	// the op of every later one — ≡ 1 (mod 3) the header read, the reset of
	// an idle session between frames; ≡ 2 the payload read; ≡ 0 the write —
	// and no one period reaches all three. Two replays do.
	var got opCounts
	for _, spec := range []faultinject.Spec{{Every: 28, Offset: 5}, {Every: 29, Offset: 5}} {
		n := netChaosWire(t, faultinject.ConnReset, spec)
		got.header, got.payload, got.write = got.header+n.header, got.payload+n.payload, got.write+n.write
	}
	if got.header == 0 || got.payload == 0 || got.write == 0 {
		t.Fatalf("reset fires landed on %v: the schedules must reach all three ops", got)
	}
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
