// Package client is the Go client for the internal/server SQL service. It
// speaks the internal/wire frame protocol over TCP and presents results in
// engine terms: typed value.Datum rows (floats round-trip bit-exactly), the
// plan text, the compile/exec cost split, and the JITS degradation flags.
//
// Typed server errors are resurrected as wrapped sentinels, so a remote
// caller's error handling is identical to an embedded caller's:
//
//	_, err := conn.Query("SELECT ...")
//	if errors.Is(err, govern.ErrOverloaded) { backoff() }
//
// # Fault tolerance
//
// The connection is defended in layers, all off by default:
//
//   - A frame I/O failure mid-round-trip leaves the stream unusable (the
//     next length prefix could be mid-frame garbage), so the connection is
//     poisoned and closed immediately; with no retry policy, the failing
//     call and every later call return an error wrapping ErrBroken instead
//     of desyncing.
//   - With a RetryPolicy (Config.Retry), the client transparently
//     reconnects with exponential backoff plus seeded jitter, resumes its
//     server-side session via the token issued at HELLO, and re-sends the
//     interrupted request. Query/Execute requests carry monotonic request
//     IDs; an in-doubt re-send reuses the ORIGINAL ID, so the server's
//     dedup cache returns the already-computed response rather than
//     re-executing — a DML can never double-apply across a reconnect.
//   - Retryable server errors (govern.ErrOverloaded) are retried under the
//     same policy as fresh attempts with NEW IDs. Every other typed error
//     passes straight through.
//   - If the session cannot be resumed while a request is in doubt (resume
//     window expired, or the request ID fell out of the server's dedup
//     window), the call fails with an error wrapping ErrSessionLost: the
//     outcome is genuinely unknowable and the client refuses to guess.
//
// A Conn is safe for concurrent use; the protocol is strictly
// request/response, so concurrent calls serialize on an internal mutex.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/value"
	"repro/internal/wire"
)

// Sentinel errors for connection lifecycle states.
var (
	// ErrClosed is returned by every call after Close.
	ErrClosed = errors.New("client: connection closed")
	// ErrBroken wraps every error returned once the connection has been
	// poisoned by a mid-round-trip I/O failure and no retry policy is
	// configured: the frame stream cannot be trusted, so calls fail fast.
	ErrBroken = errors.New("client: connection broken")
	// ErrSessionLost wraps errors where a request's outcome is unknowable:
	// the request was in doubt and the server-side session (or the request's
	// dedup window) is gone, so re-sending could double-apply.
	ErrSessionLost = errors.New("client: session lost with request in doubt")
)

// RetryPolicy configures transparent retries. The zero value disables them.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per call (first try
	// included); values ≤ 1 disable retries.
	MaxAttempts int
	// BaseBackoff is the first retry's backoff (default 5ms); each further
	// attempt doubles it up to MaxBackoff (default 500ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed makes the jitter deterministic for tests; 0 selects 1.
	Seed int64
}

func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// Config tunes a connection. The zero value matches the historical client:
// no deadlines, no retries.
type Config struct {
	// DialTimeout bounds each dial attempt (first connect and reconnects);
	// 0 means no bound.
	DialTimeout time.Duration
	// FrameTimeout bounds each frame write and each response payload read.
	// The wait for a response header is unbounded — statements may
	// legitimately run long. 0 disables the deadlines.
	FrameTimeout time.Duration
	// Retry enables transparent reconnect + retry; zero value disables.
	Retry RetryPolicy
	// ConnWrapper, when non-nil, wraps every dialed connection — the chaos
	// suite injects deterministic network faults here (faultinject.WrapConn).
	ConnWrapper func(net.Conn) net.Conn
}

// Stats counts a connection's recovery activity.
type Stats struct {
	// Reconnects is how many times the transport was re-dialed after the
	// initial connect.
	Reconnects int64
	// Resumes is how many reconnects reattached the server-side session via
	// the resume token (vs. starting a fresh session and replaying state).
	Resumes int64
	// Retries is how many extra attempts the retry policy spent (I/O
	// re-sends and overloaded-error retries combined).
	Retries int64
}

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
// the wire code stands for (govern.ErrOverloaded, govern.ErrMemoryBudget,
// engine.ErrClosed, context.DeadlineExceeded), when there is one.
type Error struct {
	Code    string
	Message string
}

func (e *Error) Error() string { return fmt.Sprintf("server: %s (%s)", e.Message, e.Code) }

// Unwrap lets errors.Is match the engine sentinel behind the wire code.
func (e *Error) Unwrap() error { return wire.BaseError(e.Code) }

// stmtState is the client-side record of one prepared statement: the SQL
// (for replay into a fresh session) and the server's current handle for it.
type stmtState struct {
	sql      string
	serverID int64
}

// Conn is one client session. It survives its transport: with a retry
// policy the underlying TCP connection may be re-dialed and the server-side
// session resumed any number of times behind a stable Conn.
type Conn struct {
	cfg  Config
	addr string

	mu        sync.Mutex
	conn      net.Conn
	closed    bool
	broken    error // first poisoning I/O error; nil once reconnected
	token     string
	connected bool // true once the first connect succeeded (for Stats.Reconnects)

	nextID uint64 // monotonic request IDs for query/execute

	// Replayable session state for fresh-session fallback.
	optsSet     bool
	parallelism int
	timeout     time.Duration
	stmts       map[int64]*stmtState // local handle → state
	nextLocal   int64

	rng   *rand.Rand
	stats Stats
}

// Dial opens a session to a server at addr with the zero Config.
func Dial(addr string) (*Conn, error) { return DialWith(addr, Config{}) }

// DialWith opens a session with cfg.
func DialWith(addr string, cfg Config) (*Conn, error) {
	return DialContext(context.Background(), addr, cfg)
}

// DialContext opens a session with cfg; ctx bounds the initial connect and
// handshake only (later reconnects use cfg.DialTimeout).
func DialContext(ctx context.Context, addr string, cfg Config) (*Conn, error) {
	if cfg.Retry.enabled() {
		if cfg.Retry.BaseBackoff <= 0 {
			cfg.Retry.BaseBackoff = 5 * time.Millisecond
		}
		if cfg.Retry.MaxBackoff <= 0 {
			cfg.Retry.MaxBackoff = 500 * time.Millisecond
		}
	}
	seed := cfg.Retry.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Conn{
		cfg:   cfg,
		addr:  addr,
		stmts: make(map[int64]*stmtState),
		rng:   rand.New(rand.NewSource(seed)),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// The initial connect honours the retry policy too: a transient fault
	// during dial or handshake is no different from one mid-session.
	attempt := 1
	for {
		err := c.connectLocked(ctx, false)
		if err == nil {
			return c, nil
		}
		if !cfg.Retry.enabled() || attempt >= cfg.Retry.MaxAttempts ||
			!connectRetryable(err) || ctx.Err() != nil {
			return nil, err
		}
		attempt++
		c.stats.Retries++
		c.backoffLocked(attempt - 1)
	}
}

// connectLocked (re)establishes the transport and the server-side session:
// dial, HELLO (with the resume token if we hold one), and — when the server
// could not resume — replay of session options and prepared statements into
// the fresh session. inDoubt guards exactly-once: if a request's outcome is
// unknown and the old session cannot be resumed, connecting to a fresh
// session would allow a double-apply, so the connect fails with
// ErrSessionLost instead. Callers hold c.mu.
func (c *Conn) connectLocked(ctx context.Context, inDoubt bool) error {
	if c.closed {
		return ErrClosed
	}
	if c.conn != nil {
		return nil
	}
	d := net.Dialer{Timeout: c.cfg.DialTimeout}
	raw, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	if c.cfg.ConnWrapper != nil {
		raw = c.cfg.ConnWrapper(raw)
	}
	resp, err := c.exchange(raw, &wire.Request{Type: wire.ReqHello, Token: c.token})
	if err != nil {
		_ = raw.Close()
		return err
	}
	resumeExpired := resp.Type == wire.RespError && resp.Error != nil &&
		(resp.Error.Code == wire.CodeResumeExpired)
	if resumeExpired && c.token != "" {
		if inDoubt {
			_ = raw.Close()
			return fmt.Errorf("%w: resume window expired", ErrSessionLost)
		}
		// The old session is gone but nothing is in doubt: start fresh and
		// replay our state below.
		c.token = ""
		resp, err = c.exchange(raw, &wire.Request{Type: wire.ReqHello})
		if err != nil {
			_ = raw.Close()
			return err
		}
	}
	if resp.Type == wire.RespError && resp.Error != nil {
		_ = raw.Close()
		return &Error{Code: resp.Error.Code, Message: resp.Error.Message}
	}
	if resp.Type != wire.RespWelcome {
		_ = raw.Close()
		return fmt.Errorf("client: unexpected hello response type %q", resp.Type)
	}
	c.token = resp.Token
	c.conn = raw
	c.broken = nil
	if c.connected {
		c.stats.Reconnects++
	}
	c.connected = true
	if resp.Resumed {
		c.stats.Resumes++
		return nil // server kept options, prepared statements, dedup cache
	}
	if err := c.replayLocked(); err != nil {
		c.poisonLocked(err)
		return err
	}
	return nil
}

// replayLocked pushes session options and prepared statements into a fresh
// session (ID 0 frames: idempotent, never deduplicated). Callers hold c.mu.
func (c *Conn) replayLocked() error {
	if c.optsSet {
		resp, err := c.exchange(c.conn, &wire.Request{
			Type:        wire.ReqOptions,
			Parallelism: c.parallelism,
			TimeoutMS:   int64(c.timeout / time.Millisecond),
		})
		if err != nil {
			return err
		}
		if resp.Type == wire.RespError {
			return &Error{Code: resp.Error.Code, Message: resp.Error.Message}
		}
	}
	locals := make([]int64, 0, len(c.stmts))
	for id := range c.stmts {
		locals = append(locals, id)
	}
	sort.Slice(locals, func(i, j int) bool { return locals[i] < locals[j] })
	for _, id := range locals {
		st := c.stmts[id]
		resp, err := c.exchange(c.conn, &wire.Request{Type: wire.ReqPrepare, SQL: st.sql})
		if err != nil {
			return err
		}
		if resp.Type == wire.RespError {
			return &Error{Code: resp.Error.Code, Message: resp.Error.Message}
		}
		if resp.Type != wire.RespPrepared {
			return fmt.Errorf("client: unexpected replay response type %q", resp.Type)
		}
		st.serverID = resp.StmtID
	}
	return nil
}

// exchange writes one request frame and reads its response frame on conn,
// under the configured frame deadlines.
func (c *Conn) exchange(conn net.Conn, req *wire.Request) (*wire.Response, error) {
	if err := wire.WriteFrameDeadline(conn, req, c.cfg.FrameTimeout); err != nil {
		return nil, fmt.Errorf("client: send: %w", err)
	}
	var resp wire.Response
	if err := wire.ReadFrameDeadline(conn, &resp, 0, c.cfg.FrameTimeout); err != nil {
		return nil, fmt.Errorf("client: recv: %w", err)
	}
	return &resp, nil
}

// poisonLocked tears the transport down after a mid-round-trip failure: the
// frame stream can no longer be trusted (the peer may be mid-frame), so it
// must never be read again. Callers hold c.mu.
func (c *Conn) poisonLocked(err error) {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	c.broken = err
}

// retryableCode reports whether a server error code is retryable by policy:
// only overload shedding is — the statement never ran, so a retry is a
// fresh attempt, not a re-send.
func retryableCode(code string) bool { return code == wire.CodeOverloaded }

// connectRetryable reports whether a connect failure is worth retrying:
// transport-level errors are, typed rejections (draining, session lost,
// closed) are not.
func connectRetryable(err error) bool {
	var we *Error
	return !errors.As(err, &we) && !errors.Is(err, ErrSessionLost) && !errors.Is(err, ErrClosed)
}

// backoffLocked sleeps the policy's exponential backoff with jitter in
// [½·backoff, backoff]. Callers hold c.mu (intentionally: the protocol is
// serialized anyway, and holding it keeps retry state consistent).
func (c *Conn) backoffLocked(attempt int) {
	d := c.cfg.Retry.BaseBackoff << (attempt - 1)
	if d > c.cfg.Retry.MaxBackoff || d <= 0 {
		d = c.cfg.Retry.MaxBackoff
	}
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	time.Sleep(d)
}

// call runs one request through the connect/retry state machine. withID
// assigns a monotonic request ID (query/execute — the dedup-critical
// frames); localStmt, when non-zero, re-resolves the server-side statement
// handle each attempt (it changes if a fresh session replayed prepares).
func (c *Conn) call(req *wire.Request, withID bool, localStmt int64) (*wire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.broken != nil && !c.cfg.Retry.enabled() {
		return nil, fmt.Errorf("%w (poisoned by: %v)", ErrBroken, c.broken)
	}
	if withID {
		c.nextID++
		req.ID = c.nextID
	}
	attempt := 1
	inDoubt := false
	for {
		if err := c.connectLocked(context.Background(), inDoubt); err != nil {
			if c.cfg.Retry.enabled() && attempt < c.cfg.Retry.MaxAttempts && connectRetryable(err) {
				attempt++
				c.stats.Retries++
				c.backoffLocked(attempt - 1)
				continue
			}
			return nil, err
		}
		if localStmt != 0 {
			st, ok := c.stmts[localStmt]
			if !ok {
				return nil, fmt.Errorf("client: statement closed or never prepared")
			}
			req.StmtID = st.serverID
		}
		req.Retry = attempt - 1
		resp, err := c.exchange(c.conn, req)
		if err != nil {
			c.poisonLocked(err)
			if withID {
				// The request may have reached the server and executed; only
				// a re-send under the SAME ID (against the session's dedup
				// cache) is safe from here on.
				inDoubt = true
			}
			if c.cfg.Retry.enabled() && attempt < c.cfg.Retry.MaxAttempts {
				attempt++
				c.stats.Retries++
				c.backoffLocked(attempt - 1)
				continue
			}
			if c.cfg.Retry.enabled() {
				return nil, fmt.Errorf("client: retries exhausted (%d attempts): %w", attempt, err)
			}
			return nil, fmt.Errorf("%w: %v", ErrBroken, err)
		}
		if resp.Type == wire.RespError && resp.Error != nil {
			if resp.Error.Code == wire.CodeDedupMiss {
				return nil, fmt.Errorf("%w: %s", ErrSessionLost, resp.Error.Message)
			}
			if c.cfg.Retry.enabled() && attempt < c.cfg.Retry.MaxAttempts && retryableCode(resp.Error.Code) {
				// The statement was shed before running: this retry is a
				// FRESH attempt and must use a new ID — reusing the old one
				// would dedup against the cached overload error.
				attempt++
				c.stats.Retries++
				if withID {
					c.nextID++
					req.ID = c.nextID
				}
				inDoubt = false
				c.backoffLocked(attempt - 1)
				continue
			}
		}
		return resp, nil
	}
}

// resultOrError unpacks a response expected to carry a result frame.
func resultOrError(resp *wire.Response) (*Result, error) {
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

// Query runs one SQL statement.
func (c *Conn) Query(sql string) (*Result, error) {
	resp, err := c.call(&wire.Request{Type: wire.ReqQuery, SQL: sql}, true, 0)
	if err != nil {
		return nil, err
	}
	return resultOrError(resp)
}

// Stats returns a snapshot of the connection's recovery counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Stmt is a prepared statement handle. It survives reconnects: the client
// re-prepares it into any fresh session and tracks the server's handle.
type Stmt struct {
	c     *Conn
	local int64
}

// Prepare registers sql as a prepared statement in this session.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	resp, err := c.call(&wire.Request{Type: wire.ReqPrepare, SQL: sql}, false, 0)
	if err != nil {
		return nil, err
	}
	switch resp.Type {
	case wire.RespError:
		return nil, &Error{Code: resp.Error.Code, Message: resp.Error.Message}
	case wire.RespPrepared:
		c.mu.Lock()
		c.nextLocal++
		local := c.nextLocal
		c.stmts[local] = &stmtState{sql: sql, serverID: resp.StmtID}
		c.mu.Unlock()
		return &Stmt{c: c, local: local}, nil
	default:
		return nil, fmt.Errorf("client: unexpected response type %q", resp.Type)
	}
}

// Execute runs the prepared statement.
func (st *Stmt) Execute() (*Result, error) {
	resp, err := st.c.call(&wire.Request{Type: wire.ReqExecute}, true, st.local)
	if err != nil {
		return nil, err
	}
	return resultOrError(resp)
}

// SetOptions sets the session's execution options: parallelism 0 keeps the
// engine default (1 forces serial), timeout 0 keeps the engine default. The
// options are remembered client-side and replayed into fresh sessions.
func (c *Conn) SetOptions(parallelism int, timeout time.Duration) error {
	resp, err := c.call(&wire.Request{
		Type:        wire.ReqOptions,
		Parallelism: parallelism,
		TimeoutMS:   int64(timeout / time.Millisecond),
	}, false, 0)
	if err != nil {
		return err
	}
	if resp.Type == wire.RespError {
		return &Error{Code: resp.Error.Code, Message: resp.Error.Message}
	}
	c.mu.Lock()
	c.optsSet = true
	c.parallelism = parallelism
	c.timeout = timeout
	c.mu.Unlock()
	return nil
}

// Close ends the session: a close frame is sent (best effort) and the
// connection is torn down. Safe to call twice.
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
	if err := wire.WriteFrameDeadline(c.conn, &wire.Request{Type: wire.ReqClose}, c.cfg.FrameTimeout); err == nil {
		var resp wire.Response
		_ = wire.ReadFrameDeadline(c.conn, &resp, time.Second, c.cfg.FrameTimeout)
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
