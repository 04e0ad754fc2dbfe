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
	"repro/internal/wire"
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

// expectHello consumes the HELLO and issues a welcome.
func expectHello(t *testing.T, conn net.Conn) bool {
	req, ok := readReq(t, conn)
	if !ok || req.Type != wire.ReqHello {
		t.Errorf("expected hello, got %+v (ok=%v)", req, ok)
		return false
	}
	writeResp(t, conn, &wire.Response{Type: wire.RespWelcome})
	return true
}

// TestDialRefusedIsTyped: a server that refuses the HELLO (here: draining)
// fails Dial with the typed error, which matches the engine sentinel the
// code stands for, and the refused connection is not kept.
func TestDialRefusedIsTyped(t *testing.T) {
	addr := startScript(t, func(n int, conn net.Conn) {
		if _, ok := readReq(t, conn); !ok {
			return
		}
		writeResp(t, conn, &wire.Response{Type: wire.RespError, Error: &wire.Error{
			Code: wire.CodeDraining, Message: "draining",
		}})
	})
	c, err := client.Dial(addr)
	var se *client.Error
	if c != nil || !errors.As(err, &se) || se.Code != wire.CodeDraining || !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("Dial = %v, %v; want a typed draining refusal", c, err)
	}
}

// TestTypedErrorsPassThrough: each typed query error surfaces unchanged
// and matches the engine sentinel its code stands for — engine closed and
// statement timed out — on the same session; the client re-sends neither.
func TestTypedErrorsPassThrough(t *testing.T) {
	codes := []string{wire.CodeClosed, wire.CodeTimeout}
	addr := startScript(t, func(n int, conn net.Conn) {
		if !expectHello(t, conn) {
			return
		}
		for _, code := range codes {
			if _, ok := readReq(t, conn); !ok {
				return
			}
			writeResp(t, conn, &wire.Response{Type: wire.RespError, Error: &wire.Error{Code: code, Message: code}})
		}
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, sentinel := range []error{engine.ErrClosed, context.DeadlineExceeded} {
		var se *client.Error
		if _, err := c.Query("SELECT 1"); !errors.As(err, &se) || se.Code != codes[i] || !errors.Is(err, sentinel) {
			t.Fatalf("query %d: err = %v, want code %s matching %v", i, err, codes[i], sentinel)
		}
	}
}

// TestNonRetryableNotRetried: a typed error comes back after exactly one
// query frame, and the session stays usable for the next statement.
func TestNonRetryableNotRetried(t *testing.T) {
	var queries atomic.Int64
	addr := startScript(t, func(n int, conn net.Conn) {
		if !expectHello(t, conn) {
			return
		}
		for {
			req, ok := readReq(t, conn)
			if !ok {
				return
			}
			if req.Type == wire.ReqQuery {
				queries.Add(1)
				writeResp(t, conn, &wire.Response{Type: wire.RespError, Error: &wire.Error{
					Code: wire.CodeError, Message: "unknown table",
				}})
			}
			if req.Type == wire.ReqClose {
				writeResp(t, conn, &wire.Response{Type: wire.RespOK})
				return
			}
		}
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for want := int64(1); want <= 2; want++ {
		var se *client.Error
		if _, err := c.Query("SELECT 1"); !errors.As(err, &se) || se.Code != wire.CodeError {
			t.Fatalf("err = %v, want typed server error", err)
		}
		if n := queries.Load(); n != want {
			t.Fatalf("server saw %d query frames, want %d", n, want)
		}
	}
}

// TestPoisonedConnFailsFast pins the frame-desync fix: after a
// mid-round-trip I/O failure the connection is poisoned — the failing call and every later call wrap ErrBroken instead
// of reading a desynced stream, and Close flips the state to ErrClosed.
func TestPoisonedConnFailsFast(t *testing.T) {
	addr := startScript(t, func(n int, conn net.Conn) {
		if !expectHello(t, conn) {
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
