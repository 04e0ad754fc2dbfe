package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/debugserver"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/wire"
)

// counterValue reads one series of the server's own Scrape; label is the
// rendered pair (`type="hello"`), empty for an unlabelled family.
func counterValue(srv *server.Server, name, label string) float64 {
	for _, s := range srv.Scrape().Samples() {
		if s.Name == name && s.Label == label {
			return s.Value
		}
	}
	return -1
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// slowQueries arms the morsel-latency fault so every statement takes real
// wall time — long enough that shutdown/close provably races in-flight work.
func slowQueries(t *testing.T, latency time.Duration) {
	t.Helper()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Arm(faultinject.MorselLatency,
		faultinject.Spec{Every: 1, Latency: latency}); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDrainsInFlight is the graceful-drain proof: Shutdown with a
// generous deadline must let the in-flight statement finish AND deliver its
// response, refuse new sessions, and leave every governor slot released.
func TestShutdownDrainsInFlight(t *testing.T) {
	cfg := serveConfig(0)
	cfg.JITS.SampleSize = 200
	cfg.Governor.MaxConcurrent = 2
	cfg.Governor.QueueDepth = 8
	eng, d := loadedEngine(t, cfg, 0.002)
	srv := server.NewWith(eng, server.Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	slowQueries(t, 3*time.Millisecond)
	sql := d.Queries(1, 7)[0].SQL
	type outcome struct {
		res *client.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := conn.Query(sql)
		done <- outcome{res, err}
	}()
	waitFor(t, 5*time.Second, "statement in flight", func() bool {
		return eng.Governor().Snapshot().InFlight > 0
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful Shutdown returned %v", err)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("in-flight statement did not survive graceful drain: %v", out.err)
	}
	snap := eng.Governor().Snapshot()
	if snap.InFlight != 0 || snap.Queued != 0 || snap.GlobalMemUsed != 0 {
		t.Fatalf("governor not drained after Shutdown: %+v", snap)
	}
	if len(srv.Sessions()) != 0 {
		t.Fatalf("sessions survived Shutdown: %+v", srv.Sessions())
	}
	// The engine itself stays open — shutdown drains the service, not the
	// embedder's engine.
	if _, err := eng.Exec(sql); err != nil {
		t.Fatalf("engine unusable after Shutdown: %v", err)
	}
	// The listener is gone: no new sessions.
	if _, err := client.Dial(addr); err == nil {
		t.Fatal("dial succeeded after Shutdown")
	}
}

// TestShutdownDeadlineFallsBack pins the other half of the contract: when
// the context expires before in-flight statements finish, Shutdown falls
// back to the hard cancel, returns the context error, and still leaves the
// governor fully drained.
func TestShutdownDeadlineFallsBack(t *testing.T) {
	cfg := serveConfig(0)
	cfg.JITS.SampleSize = 200
	cfg.Governor.MaxConcurrent = 2
	cfg.Governor.QueueDepth = 8
	eng, d := loadedEngine(t, cfg, 0.002)
	srv := server.NewWith(eng, server.Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	slowQueries(t, 50*time.Millisecond) // far slower than the shutdown budget
	errCh := make(chan error, 1)
	go func() {
		_, err := conn.Query(d.Queries(1, 7)[0].SQL)
		errCh <- err
	}()
	waitFor(t, 5*time.Second, "statement in flight", func() bool {
		return eng.Governor().Snapshot().InFlight > 0
	})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded from the hard fallback", err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("statement survived a hard-cancelled shutdown")
	}
	snap := eng.Governor().Snapshot()
	if snap.InFlight != 0 || snap.Queued != 0 || snap.GlobalMemUsed != 0 {
		t.Fatalf("governor not drained after hard shutdown: %+v", snap)
	}
}

// TestStalledPeerReaped proves the idle reaper: a session that goes silent
// past IdleTimeout is reaped — metered, its goroutine released — yet stays
// resumable inside the resume window.
func TestStalledPeerReaped(t *testing.T) {
	cfg := serveConfig(0)
	cfg.JITS.Enabled = false
	eng, _ := loadedEngine(t, cfg, 0.002)
	srv := server.NewWith(eng, server.Config{
		IdleTimeout:  50 * time.Millisecond,
		FrameTimeout: 50 * time.Millisecond,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	baseline := runtime.NumGoroutine()
	reapedBefore := counterValue(srv, "server_sessions_reaped_total", "")

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, &wire.Request{Type: wire.ReqHello}); err != nil {
		t.Fatal(err)
	}
	var welcome wire.Response
	if err := wire.ReadFrame(nc, &welcome); err != nil || welcome.Type != wire.RespWelcome {
		t.Fatalf("hello: %+v, %v", welcome, err)
	}

	// Go silent. The reaper must fire, count itself, and release the
	// session's goroutine — not leak it parked on a dead read forever.
	waitFor(t, 5*time.Second, "reap counter", func() bool {
		return counterValue(srv, "server_sessions_reaped_total", "") > reapedBefore
	})
	waitFor(t, 5*time.Second, "handler goroutine release", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
	if n := len(srv.Sessions()); n != 0 {
		t.Fatalf("%d active sessions after reap", n)
	}

	// The reaped session was parked, not destroyed: its token still resumes.
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	if err := wire.WriteFrame(nc2, &wire.Request{Type: wire.ReqHello, Token: welcome.Token}); err != nil {
		t.Fatal(err)
	}
	var resumed wire.Response
	if err := wire.ReadFrame(nc2, &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.Type != wire.RespWelcome || !resumed.Resumed || resumed.Token != welcome.Token {
		t.Fatalf("resume after reap: %+v", resumed)
	}
}

// TestTornFrameDropsSession sends a frame header whose payload never fully
// arrives. The server must drop the connection (mid-frame deadline) rather
// than wait forever or misparse later bytes as a fresh length prefix.
func TestTornFrameDropsSession(t *testing.T) {
	cfg := serveConfig(0)
	cfg.JITS.Enabled = false
	eng, _ := loadedEngine(t, cfg, 0.002)
	srv := server.NewWith(eng, server.Config{
		IdleTimeout:  500 * time.Millisecond,
		FrameTimeout: 50 * time.Millisecond,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, &wire.Request{Type: wire.ReqHello}); err != nil {
		t.Fatal(err)
	}
	var welcome wire.Response
	if err := wire.ReadFrame(nc, &welcome); err != nil || welcome.Type != wire.RespWelcome {
		t.Fatalf("hello: %+v, %v", welcome, err)
	}

	reapedBefore := counterValue(srv, "server_sessions_reaped_total", "")
	// Header promises 64 payload bytes; send only 8, then stall. If the
	// server tried to re-synchronize instead of dropping, the NEXT frame's
	// length prefix would be read as payload and the stream would desync.
	if _, err := nc.Write([]byte{0, 0, 0, 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write([]byte(`{"type":"`)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "torn-frame reap", func() bool {
		return counterValue(srv, "server_sessions_reaped_total", "") > reapedBefore
	})

	// The connection is dead from the server side: completing the "frame"
	// and appending a valid one gets no response, just EOF/reset.
	rest := make([]byte, 56)
	_, _ = nc.Write(rest)
	_ = wire.WriteFrame(nc, &wire.Request{Type: wire.ReqPing})
	_ = nc.SetReadDeadline(time.Now().Add(time.Second))
	var resp wire.Response
	if err := wire.ReadFrame(nc, &resp); err == nil {
		t.Fatalf("server answered on a torn stream: %+v", resp)
	}
}

// TestCloseMidRoundTripPoisonsClient: Close while a client is mid-round-trip
// must surface a typed error (ErrBroken after the poison), drain the accept
// loop and every handler, and leak no goroutines.
func TestCloseMidRoundTripPoisonsClient(t *testing.T) {
	cfg := serveConfig(0)
	cfg.JITS.SampleSize = 200
	cfg.Governor.MaxConcurrent = 2
	cfg.Governor.QueueDepth = 8
	eng, d := loadedEngine(t, cfg, 0.002)

	baseline := runtime.NumGoroutine()
	srv := server.New(eng)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	slowQueries(t, 20*time.Millisecond)
	errCh := make(chan error, 1)
	go func() {
		_, err := conn.Query(d.Queries(1, 7)[0].SQL)
		errCh <- err
	}()
	waitFor(t, 5*time.Second, "statement in flight", func() bool {
		return eng.Governor().Snapshot().InFlight > 0
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("round-trip across Close succeeded")
	}
	// The conn poisons on its first I/O failure. (The in-flight statement
	// may have drawn a typed cancellation response just before the conn
	// died; the next touch of the dead stream poisons for sure.) Once
	// poisoned, calls fail fast with the sentinel and never touch the wire.
	var perr error
	for i := 0; i < 3; i++ {
		if _, perr = conn.Query(`SELECT c.id FROM car c WHERE c.id = 1`); errors.Is(perr, client.ErrBroken) {
			break
		}
	}
	if !errors.Is(perr, client.ErrBroken) {
		t.Fatalf("post-poison error = %v, want ErrBroken", perr)
	}
	start := time.Now()
	if _, perr = conn.Query(`SELECT c.id FROM car c WHERE c.id = 1`); !errors.Is(perr, client.ErrBroken) {
		t.Fatalf("poisoned conn did not fail fast: %v", perr)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("poisoned call took %v, want fail-fast", d)
	}
	waitFor(t, 5*time.Second, "server goroutines drained", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// tearNthWrite wraps server-side connections and severs the connection on
// exactly the Nth write across all of them. Aimed at a response frame, it
// manufactures the worst in-doubt case: the statement HAS executed but the
// client cannot know.
func tearNthWrite(n int64) (func(net.Conn) net.Conn, *atomic.Int64) {
	var writes atomic.Int64
	return func(c net.Conn) net.Conn {
		return &tearConn{Conn: c, writes: &writes, tearAt: n}
	}, &writes
}

type tearConn struct {
	net.Conn
	writes *atomic.Int64
	tearAt int64
}

func (t *tearConn) Write(p []byte) (int, error) {
	if t.writes.Add(1) == t.tearAt {
		_ = t.Conn.Close()
		return 0, errors.New("tearconn: injected response tear")
	}
	return t.Conn.Write(p)
}

// TestExactlyOnceInDoubtResend is the exactly-once DML proof. The server
// executes an INSERT and then the response frame is torn, so the client is
// in doubt. With retries enabled it reconnects, resumes the session, and
// re-sends under the ORIGINAL request ID; the server's dedup cache answers
// with the already-computed response instead of re-executing. Exactly one
// row exists afterwards.
func TestExactlyOnceInDoubtResend(t *testing.T) {
	cfg := serveConfig(0)
	cfg.JITS.Enabled = false
	eng, _ := loadedEngine(t, cfg, 0.002)
	// Each frame is one write: write 1 is the first session's welcome,
	// write 2 is the INSERT response — torn after the engine has applied
	// the row.
	wrapper, writes := tearNthWrite(2)
	srv := server.NewWith(eng, server.Config{ConnWrapper: wrapper})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	conn, err := client.DialWith(addr, client.Config{
		Retry: client.RetryPolicy{MaxAttempts: 5, BaseBackoff: 2 * time.Millisecond, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	dedupBefore := counterValue(srv, "server_dedup_hits_total", "")
	res, err := conn.Query(`INSERT INTO car VALUES (7700001, 1, 'Toyota', 'Camry', 2003, 9500.0, 'green')`)
	if err != nil {
		t.Fatalf("in-doubt INSERT did not recover: %v", err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("RowsAffected = %d, want 1", res.RowsAffected)
	}
	if writes.Load() < 3 {
		t.Fatalf("tear never happened (only %d writes)", writes.Load())
	}
	if got := counterValue(srv, "server_dedup_hits_total", ""); got != dedupBefore+1 {
		t.Fatalf("dedup hits %g -> %g, want exactly one cache-served re-send", dedupBefore, got)
	}
	stats := conn.Stats()
	if stats.Reconnects != 1 || stats.Resumes != 1 || stats.Retries < 1 {
		t.Fatalf("client stats = %+v, want one resume-reconnect", stats)
	}

	// The canonical double-apply check: exactly one row carries the key.
	chk, err := conn.Query(`SELECT c.id FROM car c WHERE c.id = 7700001`)
	if err != nil {
		t.Fatal(err)
	}
	if len(chk.Rows) != 1 {
		t.Fatalf("%d rows with the canary key, want exactly 1 (double apply?)", len(chk.Rows))
	}
}

// TestDrainingHealth wires Server.Draining into the debug server's health
// probe contract: during/after a graceful drain /debug/health flips to 503
// "draining" so load balancers stop routing to the node.
func TestDrainingHealth(t *testing.T) {
	cfg := serveConfig(0)
	cfg.JITS.Enabled = false
	eng, _ := loadedEngine(t, cfg, 0.002)
	srv := server.New(eng)
	if srv.Draining() {
		t.Fatal("fresh server reports draining")
	}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	dbg := debugserver.New(eng)
	dbg.SetDrainingSource(srv.Draining)
	dbgAddr, err := dbg.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	get := func() (int, string) {
		t.Helper()
		res, err := http.Get("http://" + dbgAddr + "/debug/health")
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 4096)
		n, _ := res.Body.Read(body)
		res.Body.Close()
		return res.StatusCode, string(body[:n])
	}
	if code, body := get(); code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("healthy probe: %d %s", code, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if !srv.Draining() {
		t.Fatal("server not draining after Shutdown")
	}
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, `"status": "draining"`) {
		t.Fatalf("draining probe: %d %s", code, body)
	}
}

// TestUnknownRequestTypesShareOneSeries: a peer cannot grow the server's
// series set. 2000 connections each open with a request type the protocol
// does not define, a different one every time; each is refused, and
// server_requests_total keeps its fixed labels — every wire.Req* type and
// "other" — with all 2000 frames counted under "other".
func TestUnknownRequestTypesShareOneSeries(t *testing.T) {
	srv, addr := startServer(t, engine.New(engine.Config{}))
	const conns = 2000
	for i := 0; i < conns; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(nc, &wire.Request{Type: fmt.Sprintf("junk-%d", i)}); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := wire.ReadFrame(nc, &resp); err != nil || resp.Type != wire.RespError || resp.Error.Code != wire.CodeBadRequest {
			t.Fatalf("junk frame %d: %+v, %v; want a bad_request refusal", i, resp, err)
		}
		_ = nc.Close()
	}
	var labels []string
	for _, s := range srv.Scrape().Samples() {
		if s.Name == "server_requests_total" {
			labels = append(labels, s.Label)
		}
	}
	want := []string{`type="close"`, `type="execute"`, `type="hello"`, `type="options"`,
		`type="other"`, `type="ping"`, `type="prepare"`, `type="query"`}
	if strings.Join(labels, " ") != strings.Join(want, " ") {
		t.Fatalf("server_requests_total labels = %v, want %v", labels, want)
	}
	if got := counterValue(srv, "server_requests_total", `type="other"`); got != conns {
		t.Fatalf(`server_requests_total{type="other"} = %v, want %d`, got, conns)
	}
	if got := counterValue(srv, "server_errors_total", `code="bad_request"`); got != conns {
		t.Fatalf(`server_errors_total{code="bad_request"} = %v, want %d`, got, conns)
	}
}
