package client_test

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// startScript runs a scripted wire server: script is invoked once per
// accepted connection (n is the 0-based connection ordinal) and plays the
// server's side of the conversation by hand. Scripts run on non-test
// goroutines, so they report failures with t.Errorf, never t.Fatal.
func startScript(t *testing.T, script func(n int, conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(n int, conn net.Conn) {
				defer conn.Close()
				script(n, conn)
			}(n, conn)
		}
	}()
	return ln.Addr().String()
}

func readReq(t *testing.T, conn net.Conn) (wire.Request, bool) {
	var req wire.Request
	if err := wire.ReadFrame(conn, &req); err != nil {
		return req, false
	}
	return req, true
}

func writeResp(t *testing.T, conn net.Conn, resp *wire.Response) {
	if err := wire.WriteFrame(conn, resp); err != nil {
		t.Errorf("script write: %v", err)
	}
}

// expectHello consumes the HELLO and issues a welcome with token.
func expectHello(t *testing.T, conn net.Conn, token string) bool {
	req, ok := readReq(t, conn)
	if !ok || req.Type != wire.ReqHello {
		t.Errorf("expected hello, got %+v (ok=%v)", req, ok)
		return false
	}
	writeResp(t, conn, &wire.Response{Type: wire.RespWelcome, Token: token})
	return true
}

var retryCfg = client.Config{Retry: client.RetryPolicy{
	MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Seed: 11,
}}

// TestRetryOverloadedUsesFreshID: an overload shed never ran the statement,
// so the policy retry is a fresh attempt — it must carry a NEW request ID
// (re-using the old one would dedup against the cached error) and an
// incremented retry ordinal.
func TestRetryOverloadedUsesFreshID(t *testing.T) {
	ids := make(chan uint64, 2)
	retries := make(chan int, 2)
	addr := startScript(t, func(n int, conn net.Conn) {
		if !expectHello(t, conn, "tok") {
			return
		}
		for {
			req, ok := readReq(t, conn)
			if !ok {
				return
			}
			if req.Type != wire.ReqQuery {
				continue
			}
			ids <- req.ID
			retries <- req.Retry
			if len(ids) == 1 {
				writeResp(t, conn, &wire.Response{Type: wire.RespError, ID: req.ID, Error: &wire.Error{
					Code: wire.CodeOverloaded, Message: "shed",
				}})
				continue
			}
			writeResp(t, conn, &wire.Response{Type: wire.RespResult, ID: req.ID, Result: &wire.Result{}})
			return
		}
	})
	c, err := client.DialWith(addr, retryCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT 1"); err != nil {
		t.Fatalf("retried query failed: %v", err)
	}
	first, second := <-ids, <-ids
	if second <= first {
		t.Fatalf("retry reused request ID: %d then %d", first, second)
	}
	if r0, r1 := <-retries, <-retries; r0 != 0 || r1 != 1 {
		t.Fatalf("retry ordinals = %d, %d, want 0, 1", r0, r1)
	}
	if s := c.Stats(); s.Retries != 1 {
		t.Fatalf("stats = %+v, want one retry", s)
	}
}

// TestOverloadedPassesThroughWithoutPolicy: with no retry policy the typed
// overload error surfaces unchanged and matches the engine sentinel.
func TestOverloadedPassesThroughWithoutPolicy(t *testing.T) {
	addr := startScript(t, func(n int, conn net.Conn) {
		if !expectHello(t, conn, "tok") {
			return
		}
		req, ok := readReq(t, conn)
		if !ok {
			return
		}
		writeResp(t, conn, &wire.Response{Type: wire.RespError, ID: req.ID, Error: &wire.Error{
			Code: wire.CodeOverloaded, Message: "shed",
		}})
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query("SELECT 1")
	if !errors.Is(err, govern.ErrOverloaded) {
		t.Fatalf("err = %v, want govern.ErrOverloaded", err)
	}
}

// TestNonRetryableNotRetried: semantic errors are not retryable — the server
// must see exactly one query frame even with the policy armed.
func TestNonRetryableNotRetried(t *testing.T) {
	var queries atomic.Int64
	addr := startScript(t, func(n int, conn net.Conn) {
		if !expectHello(t, conn, "tok") {
			return
		}
		for {
			req, ok := readReq(t, conn)
			if !ok {
				return
			}
			if req.Type == wire.ReqQuery {
				queries.Add(1)
				writeResp(t, conn, &wire.Response{Type: wire.RespError, ID: req.ID, Error: &wire.Error{
					Code: wire.CodeError, Message: "unknown table",
				}})
			}
		}
	})
	c, err := client.DialWith(addr, retryCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var se *client.Error
	if _, err := c.Query("SELECT 1"); !errors.As(err, &se) || se.Code != wire.CodeError {
		t.Fatalf("err = %v, want typed server error", err)
	}
	if n := queries.Load(); n != 1 {
		t.Fatalf("server saw %d query frames, want 1", n)
	}
}

// TestPoisonedConnFailsFast pins the frame-desync fix: after a
// mid-round-trip I/O failure with no retry policy, the connection is
// poisoned — the failing call and every later call wrap ErrBroken instead
// of reading a desynced stream, and Close flips the state to ErrClosed.
func TestPoisonedConnFailsFast(t *testing.T) {
	addr := startScript(t, func(n int, conn net.Conn) {
		if !expectHello(t, conn, "tok") {
			return
		}
		// Read the query, answer nothing, sever: the client is now mid-frame.
		_, _ = readReq(t, conn)
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT 1"); !errors.Is(err, client.ErrBroken) {
		t.Fatalf("mid-round-trip failure = %v, want ErrBroken", err)
	}
	start := time.Now()
	if _, err := c.Query("SELECT 1"); !errors.Is(err, client.ErrBroken) {
		t.Fatalf("post-poison call = %v, want ErrBroken", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("poisoned call took %v, want fail-fast", d)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close on poisoned conn: %v", err)
	}
	if _, err := c.Query("SELECT 1"); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("post-Close call = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestDedupMissIsSessionLost: a dedup_miss answer means the in-doubt
// request's outcome is unknowable; the client must surface ErrSessionLost,
// not retry.
func TestDedupMissIsSessionLost(t *testing.T) {
	addr := startScript(t, func(n int, conn net.Conn) {
		if !expectHello(t, conn, "tok") {
			return
		}
		req, ok := readReq(t, conn)
		if !ok {
			return
		}
		writeResp(t, conn, &wire.Response{Type: wire.RespError, ID: req.ID, Error: &wire.Error{
			Code: wire.CodeDedupMiss, Message: "window passed",
		}})
	})
	c, err := client.DialWith(addr, retryCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT 1"); !errors.Is(err, client.ErrSessionLost) {
		t.Fatalf("err = %v, want ErrSessionLost", err)
	}
}

// TestResumeExpiredInDoubtIsSessionLost: the connection dies with a query in
// doubt and the server no longer holds the session — re-sending into a fresh
// session could double-apply, so the client must refuse with ErrSessionLost.
func TestResumeExpiredInDoubtIsSessionLost(t *testing.T) {
	addr := startScript(t, func(n int, conn net.Conn) {
		switch n {
		case 0:
			if !expectHello(t, conn, "tok") {
				return
			}
			_, _ = readReq(t, conn) // swallow the query, sever: in-doubt
		default:
			req, ok := readReq(t, conn)
			if !ok || req.Type != wire.ReqHello || req.Token != "tok" {
				t.Errorf("reconnect hello = %+v", req)
				return
			}
			writeResp(t, conn, &wire.Response{Type: wire.RespError, Error: &wire.Error{
				Code: wire.CodeResumeExpired, Message: "expired",
			}})
		}
	})
	c, err := client.DialWith(addr, retryCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT 1"); !errors.Is(err, client.ErrSessionLost) {
		t.Fatalf("err = %v, want ErrSessionLost", err)
	}
}

// TestDialContextCancelled: a dead context fails the dial immediately.
func TestDialContextCancelled(t *testing.T) {
	addr := startScript(t, func(n int, conn net.Conn) { expectHello(t, conn, "tok") })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.DialContext(ctx, addr, client.Config{}); err == nil {
		t.Fatal("dial with cancelled context succeeded")
	}
}

// realServer boots a real engine + server for end-to-end client tests.
func realServer(t *testing.T, scfg server.Config) (string, *server.Server) {
	t.Helper()
	cfg := engine.Config{PlanCacheSize: 64}
	eng := engine.New(cfg)
	if _, err := workload.Load(eng, workload.Spec{Scale: 0.002, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	srv := server.NewWith(eng, scfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr, srv
}

// connGrabber captures the latest raw dialed connection so tests can sever
// it out from under the client.
func connGrabber() (func(net.Conn) net.Conn, func() net.Conn) {
	var cur atomic.Pointer[net.Conn]
	return func(c net.Conn) net.Conn {
			cur.Store(&c)
			return c
		}, func() net.Conn {
			p := cur.Load()
			if p == nil {
				return nil
			}
			return *p
		}
}

// TestReconnectResumeKeepsSession: severing the transport between calls is
// invisible — the client reconnects, resumes the same server-side session
// (prepared statements intact, no replay), and the interrupted query runs
// exactly once.
func TestReconnectResumeKeepsSession(t *testing.T) {
	addr, _ := realServer(t, server.Config{})
	wrap, raw := connGrabber()
	cfg := retryCfg
	cfg.ConnWrapper = wrap
	c, err := client.DialWith(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stmt, err := c.Prepare(`SELECT o.id FROM owner o WHERE o.city = 'Ottawa'`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stmt.Execute()
	if err != nil {
		t.Fatal(err)
	}

	_ = raw().Close() // sever the transport behind the client's back

	got, err := stmt.Execute()
	if err != nil {
		t.Fatalf("execute across severed transport: %v", err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("resumed execute: %d rows, want %d", len(got.Rows), len(want.Rows))
	}
	s := c.Stats()
	if s.Reconnects != 1 || s.Resumes != 1 {
		t.Fatalf("stats = %+v, want one resumed reconnect", s)
	}
}

// TestFreshSessionReplaysState: with server-side resume disabled, a
// reconnect lands in a brand-new session — the client must replay its
// options and re-prepare its statements (under new server handles) before
// the call proceeds.
func TestFreshSessionReplaysState(t *testing.T) {
	addr, _ := realServer(t, server.Config{ResumeWindow: -1})
	wrap, raw := connGrabber()
	cfg := retryCfg
	cfg.ConnWrapper = wrap
	c, err := client.DialWith(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetOptions(1, time.Second); err != nil {
		t.Fatal(err)
	}
	stmt, err := c.Prepare(`SELECT o.id FROM owner o WHERE o.city = 'Ottawa'`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stmt.Execute()
	if err != nil {
		t.Fatal(err)
	}

	_ = raw().Close()

	// Setting options is idempotent (ID 0): its failure is not in-doubt, so
	// the client may safely fall back to a fresh session and replay.
	if err := c.SetOptions(1, time.Second); err != nil {
		t.Fatalf("options across severed transport: %v", err)
	}
	got, err := stmt.Execute()
	if err != nil {
		t.Fatalf("execute after fresh-session replay: %v", err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("replayed execute: %d rows, want %d", len(got.Rows), len(want.Rows))
	}
	s := c.Stats()
	if s.Reconnects != 1 || s.Resumes != 0 {
		t.Fatalf("stats = %+v, want one fresh-session reconnect", s)
	}
}
