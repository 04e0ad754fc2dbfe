// Package client is the Go client for the internal/server SQL service. It
// speaks the internal/wire frame protocol over TCP and presents results in
// engine terms: typed value.Datum rows (floats round-trip bit-exactly), the
// plan text, the compile/exec cost split, and the JITS degradation flags.
//
// Typed server errors are resurrected as wrapped sentinels, so a remote
// caller's error handling is identical to an embedded caller's:
//
//	_, err := conn.Query("SELECT ...")
//	if errors.Is(err, context.DeadlineExceeded) { retryLater() }
//
// A Conn is one session on one TCP connection; nothing is re-sent. A frame
// I/O failure mid-round-trip leaves the stream unusable (the next length
// prefix could be mid-frame garbage), so the connection is closed at once
// and the failing call and every later one return an error wrapping
// ErrBroken. A statement that failed with ErrBroken after it was sent may or
// may not have run: the server may have executed it and lost the response.
// A caller that must know dials a new Conn and looks.
//
// A Conn is safe for concurrent use; the protocol is strictly
// request/response, so concurrent calls serialize on an internal mutex.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/value"
	"repro/internal/wire"
)

// Sentinel errors for connection lifecycle states.
var (
	// ErrClosed is returned by every call after Close.
	ErrClosed = errors.New("client: connection closed")
	// ErrBroken wraps every error returned once a mid-round-trip I/O failure
	// has closed the connection: the frame stream cannot be trusted, so calls
	// fail fast.
	ErrBroken = errors.New("client: connection broken")
)

// Result is one statement's outcome, decoded from the wire.
type Result struct {
	Columns []string
	// Rows are cut from one backing array, and each column's strings from
	// one allocation (wire.DecodeRows): a retained row or cell keeps the
	// whole result reachable, so copy what must outlive it. Appending to a
	// row copies the row; it never writes into its neighbour.
	Rows           [][]value.Datum
	RowsAffected   int
	Plan           string
	CompileSeconds float64
	ExecSeconds    float64
	Degraded       bool
	DegradedTables []string
	PlanCacheHit   bool
}

// Error is a typed failure from the server. Unwrap exposes the sentinel
// the wire code stands for (engine.ErrClosed, context.DeadlineExceeded),
// when there is one.
type Error struct {
	Code    string
	Message string
}

func (e *Error) Error() string { return fmt.Sprintf("server: %s (%s)", e.Message, e.Code) }

// Unwrap lets errors.Is match the engine sentinel behind the wire code.
func (e *Error) Unwrap() error { return wire.BaseError(e.Code) }

// Conn is one client session.
type Conn struct {
	mu     sync.Mutex
	conn   net.Conn // nil once closed or broken
	closed bool
	broken error // the I/O failure that broke the connection
}

// Dial opens a session to a server at addr: it connects and says HELLO.
func Dial(addr string) (*Conn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	resp, err := exchange(raw, &wire.Request{Type: wire.ReqHello})
	switch {
	case err != nil:
	case resp.Type == wire.RespError && resp.Error != nil:
		err = &Error{Code: resp.Error.Code, Message: resp.Error.Message}
	case resp.Type != wire.RespWelcome:
		err = fmt.Errorf("client: unexpected hello response type %q", resp.Type)
	}
	if err != nil {
		_ = raw.Close()
		return nil, err
	}
	return &Conn{conn: raw}, nil
}

// exchange writes one request frame and reads its response frame.
func exchange(conn net.Conn, req *wire.Request) (*wire.Response, error) {
	if err := wire.WriteFrame(conn, req); err != nil {
		return nil, fmt.Errorf("client: send: %w", err)
	}
	var resp wire.Response
	if err := wire.ReadFrame(conn, &resp); err != nil {
		return nil, fmt.Errorf("client: recv: %w", err)
	}
	return &resp, nil
}

// Query runs one SQL statement.
func (c *Conn) Query(sql string) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.broken != nil {
		return nil, fmt.Errorf("%w (broken by: %v)", ErrBroken, c.broken)
	}
	resp, err := exchange(c.conn, &wire.Request{Type: wire.ReqQuery, SQL: sql})
	if err != nil {
		_ = c.conn.Close()
		c.conn = nil
		c.broken = err
		return nil, fmt.Errorf("%w: %v", ErrBroken, err)
	}
	switch resp.Type {
	case wire.RespError:
		return nil, &Error{Code: resp.Error.Code, Message: resp.Error.Message}
	case wire.RespResult:
		if resp.Result == nil {
			return nil, errors.New("client: result frame without a result")
		}
		rows, err := wire.DecodeRows(resp.Result.Rows)
		if err != nil {
			return nil, err
		}
		return &Result{
			Columns:        resp.Result.Columns,
			Rows:           rows,
			RowsAffected:   resp.Result.RowsAffected,
			Plan:           resp.Result.Plan,
			CompileSeconds: resp.Result.CompileSeconds,
			ExecSeconds:    resp.Result.ExecSeconds,
			Degraded:       resp.Result.Degraded,
			DegradedTables: resp.Result.DegradedTables,
			PlanCacheHit:   resp.Result.PlanCacheHit,
		}, nil
	default:
		return nil, fmt.Errorf("client: unexpected response type %q", resp.Type)
	}
}

// Close ends the session: a close frame is sent (best effort, its
// acknowledgement awaited for at most a second) and the connection is torn
// down. Safe to call twice.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	if err := wire.WriteFrame(c.conn, &wire.Request{Type: wire.ReqClose}); err == nil {
		var resp wire.Response
		_ = wire.ReadFrameDeadline(c.conn, &resp, time.Second, 0)
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
