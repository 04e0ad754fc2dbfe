// Package server is the multi-session SQL service: it listens on TCP,
// speaks the internal/wire frame protocol, and multiplexes any number of
// client sessions onto one embedded engine via engine.ExecUnboxed.
//
// A session is one connection. It opens with the HELLO that must be the
// connection's first frame (anything else is refused with a bad_request
// error and the connection closes), runs query frames one at a time, and
// ends when the client closes it or the connection fails; nothing of it
// outlives the connection. For each statement it runs, the engine opens a
// memory reservation on its behalf. The engine's plan cache sits below all
// sessions, so a statement compiled by one session is reused by every other
// (subject to archive-epoch invalidation on DML).
//
// The wire path is defended against misbehaving networks and peers:
//
//   - Per-frame read/write deadlines (Config.IdleTimeout between frames,
//     Config.FrameTimeout mid-frame and for response writes) reap a stalled
//     or vanished peer instead of parking a goroutine on it forever; reaps
//     are metered as server_sessions_reaped_total.
//   - A torn frame — a header whose payload never arrives — is reaped by the
//     frame deadline; the server never re-synchronizes on a stream it lost.
//   - A result whose column block exceeds wire.MaxBlockBytes is answered
//     with a typed error frame before the block is built; the session stays
//     usable.
//   - A frame type the protocol does not define is answered bad_request and
//     counted under one "other" series, so a peer cannot grow the series set.
//   - Config.ConnWrapper wraps every accepted connection; jitsbench's
//     -net-faults injects deterministic network faults through it.
//
// Shutdown(ctx) drains gracefully: stop accepting, let each session finish
// the statement it is executing (responses included), then close. If the
// context expires first it falls back to Close's hard cancel — the base
// context is cancelled, which aborts in-flight statements at the next
// morsel boundary, and every statement's memory reservation still drains to
// zero.
//
// Errors cross the wire typed: engine.ErrClosed and a cancelled or expired
// statement map to distinct codes (wire.CodeFor), which the client
// resurrects as wrapped sentinels — a remote caller's errors.Is checks
// behave exactly like an embedded caller's.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// The server_requests_total and server_errors_total labels: every request
// type and error code the protocol defines, and "other" for anything else a
// peer sends, so a client cannot grow the series set.
var (
	requestTypes = [...]string{wire.ReqHello, wire.ReqQuery, wire.ReqClose, "other"}
	errorCodes   = [...]string{wire.CodeClosed, wire.CodeDraining, wire.CodeTimeout,
		wire.CodeBadRequest, wire.CodeError, "other"}
)

// labelIndex returns v's index in labels, or the last ("other") when v is
// not one of them.
func labelIndex(labels []string, v string) int {
	for i, l := range labels[:len(labels)-1] {
		if l == v {
			return i
		}
	}
	return len(labels) - 1
}

// Config tunes the server's wire-robustness behaviour. The zero value
// disables the deadlines.
type Config struct {
	// IdleTimeout bounds how long a session may sit between frames before
	// its connection is reaped. 0 disables the reaper.
	IdleTimeout time.Duration
	// FrameTimeout bounds the rest of a frame once its header has arrived,
	// and each response write. 0 disables both deadlines.
	FrameTimeout time.Duration
	// ConnWrapper, when non-nil, wraps every accepted connection — fault
	// injection hooks in here (faultinject.WrapConn).
	ConnWrapper func(net.Conn) net.Conn
}

// Server is one listening SQL service bound to an engine. Create with New
// or NewWith, start with Start, stop with Shutdown (graceful) or Close
// (hard).
type Server struct {
	eng *engine.Engine
	cfg Config
	// maxBlock is wire.MaxBlockBytes; tests lower it to reach the
	// oversize-result path without a 63 MiB result.
	maxBlock int

	baseCtx context.Context
	cancel  context.CancelFunc

	ln       net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool
	draining atomic.Bool

	mu       sync.Mutex
	sessions map[int64]*session
	nextSess int64

	// Totals for Scrape: sessions accepted and reaped by a deadline, request
	// frames by type and error frames by code.
	sessionsTotal, reaped atomic.Int64
	requests              [len(requestTypes)]atomic.Int64
	errorFrames           [len(errorCodes)]atomic.Int64
}

// session is one client conversation's server-side state: its connection
// and what the debug server's Sessions() snapshot reads.
type session struct {
	id     int64
	remote string
	start  time.Time
	conn   net.Conn

	// busy is true while the session's goroutine is executing a request
	// (from frame decode to response written); Shutdown severs only idle
	// connections so in-flight statements finish and deliver.
	busy    atomic.Bool
	queries atomic.Int64
}

// SessionInfo is one session's introspection snapshot (/debug/sessions).
type SessionInfo struct {
	ID         int64     `json:"id"`
	Remote     string    `json:"remote"`
	Started    time.Time `json:"started"`
	Statements int64     `json:"statements"`
}

// New returns an unstarted server for the engine with the zero Config.
func New(eng *engine.Engine) *Server { return NewWith(eng, Config{}) }

// NewWith returns an unstarted server for the engine with cfg.
func NewWith(eng *engine.Engine, cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		eng:      eng,
		cfg:      cfg,
		maxBlock: wire.MaxBlockBytes,
		baseCtx:  ctx,
		cancel:   cancel,
		sessions: make(map[int64]*session),
	}
}

// Start begins listening on addr (host:port; port 0 picks a free port) and
// accepts sessions in background goroutines until Shutdown/Close. It
// returns the bound address so callers using port 0 can discover the real
// port.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Draining reports whether a graceful Shutdown is in progress (the debug
// server's health endpoint turns this into a 503).
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server gracefully: stop accepting, sever idle
// connections, and let every in-flight statement finish and deliver its
// response. If ctx expires first, it falls back to the hard path — cancel
// the base context (aborting in-flight statements at the next morsel
// boundary) and sever everything — and returns ctx.Err(). Either way, when
// Shutdown returns no session goroutine is running and every memory
// reservation opened for a session statement has been released.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Load() {
		return nil
	}
	s.draining.Store(true)
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.mu.Lock()
	for _, sess := range s.sessions {
		if !sess.busy.Load() {
			_ = sess.conn.Close()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var hardErr error
	select {
	case <-done:
	case <-ctx.Done():
		hardErr = ctx.Err()
		s.cancel()
		s.closeSessions()
		<-done
	}
	s.closed.Store(true)
	s.cancel()
	return hardErr
}

// Close stops accepting, cancels every in-flight statement, closes all
// session connections, and waits for the handlers to drain. After Close
// returns, no session goroutine is running and every memory reservation
// opened for a session statement has been released.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.draining.Store(true)
	s.cancel()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.closeSessions()
	s.wg.Wait()
	return nil
}

// closeSessions severs every session's connection.
func (s *Server) closeSessions() {
	s.mu.Lock()
	for _, sess := range s.sessions {
		_ = sess.conn.Close()
	}
	s.mu.Unlock()
}

// Sessions returns introspection snapshots of the live sessions, for the
// debug server's /debug/sessions endpoint.
func (s *Server) Sessions() []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, SessionInfo{
			ID:         sess.id,
			Remote:     sess.remote,
			Started:    sess.start,
			Statements: sess.queries.Load(),
		})
	}
	return out
}

// Scrape returns the server's server_* series: its session, request and
// error-frame totals, and the active sessions read from the live session
// map. The debug server appends them to the engine's on /metrics.
func (s *Server) Scrape() metrics.Set {
	s.mu.Lock()
	active := len(s.sessions)
	s.mu.Unlock()
	byLabel := func(labels []string, counts []atomic.Int64) []metrics.Series {
		out := make([]metrics.Series, len(labels))
		for i, l := range labels {
			out[i] = metrics.Series{LabelValue: l, Value: float64(counts[i].Load())}
		}
		return out
	}
	var set metrics.Set
	set.Gauge("server_sessions_active", "Currently open client sessions.", float64(active))
	set.Counter("server_sessions_total", "Client sessions ever accepted.", float64(s.sessionsTotal.Load()))
	set.Counter("server_sessions_reaped_total",
		"Sessions dropped because a frame read or write deadline expired.", float64(s.reaped.Load()))
	set.CounterBy("server_requests_total", "Request frames handled, by frame type.", "type",
		byLabel(requestTypes[:], s.requests[:]))
	set.CounterBy("server_errors_total", "Error frames sent, by wire error code.", "code",
		byLabel(errorCodes[:], s.errorFrames[:]))
	return set
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.cfg.ConnWrapper != nil {
			conn = s.cfg.ConnWrapper(conn)
		}
		if s.closed.Load() || s.draining.Load() {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn reads the connection's first frame, which must be a HELLO: it
// opens a session. Any other first frame is answered with a bad_request
// error and the connection closes.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	var req wire.Request
	if err := wire.ReadFrameDeadline(conn, &req, s.cfg.IdleTimeout, s.cfg.FrameTimeout); err != nil {
		if isTimeout(err) {
			s.reaped.Add(1)
		}
		_ = conn.Close()
		return
	}
	s.requests[labelIndex(requestTypes[:], req.Type)].Add(1)
	if req.Type != wire.ReqHello {
		s.refuse(conn, wire.CodeBadRequest, "server: a session opens with HELLO, got "+req.Type)
		return
	}
	if s.draining.Load() {
		s.refuse(conn, wire.CodeDraining, "server: draining, not accepting sessions")
		return
	}
	sess := s.register(conn)
	if sess == nil {
		_ = conn.Close()
		return
	}
	defer s.release(sess)
	if err := wire.WriteFrameDeadline(conn, &wire.Response{Type: wire.RespWelcome}, s.cfg.FrameTimeout); err != nil {
		return
	}
	s.handleSession(sess)
}

// refuse answers a connection's first frame with a typed error and closes
// the connection.
func (s *Server) refuse(conn net.Conn, code, msg string) {
	s.errorFrames[labelIndex(errorCodes[:], code)].Add(1)
	_ = wire.WriteFrameDeadline(conn, &wire.Response{Type: wire.RespError, Error: &wire.Error{Code: code, Message: msg}}, s.cfg.FrameTimeout)
	_ = conn.Close()
}

// register creates and registers a session for conn, or returns nil when
// the server is closing.
func (s *Server) register(conn net.Conn) *session {
	sess := &session{conn: conn, remote: conn.RemoteAddr().String(), start: time.Now()}
	s.mu.Lock()
	if s.closed.Load() || s.draining.Load() {
		s.mu.Unlock()
		return nil
	}
	s.nextSess++
	sess.id = s.nextSess
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	s.sessionsTotal.Add(1)
	return sess
}

// release ends a session: its connection closes and it leaves the map.
func (s *Server) release(sess *session) {
	_ = sess.conn.Close()
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
}

// isTimeout reports whether a frame I/O error was a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handleSession is a session's request loop: one frame in, one frame out,
// until the peer closes, errs, stalls past a deadline, or the server
// drains.
func (s *Server) handleSession(sess *session) {
	for {
		var req wire.Request
		if err := wire.ReadFrameDeadline(sess.conn, &req, s.cfg.IdleTimeout, s.cfg.FrameTimeout); err != nil {
			if isTimeout(err) {
				s.reaped.Add(1)
			}
			return
		}
		s.requests[labelIndex(requestTypes[:], req.Type)].Add(1)
		sess.busy.Store(true)
		resp := s.dispatch(sess, &req)
		if resp.Type == wire.RespError {
			s.errorFrames[labelIndex(errorCodes[:], resp.Error.Code)].Add(1)
		}
		err := wire.WriteFrameDeadline(sess.conn, resp, s.cfg.FrameTimeout)
		sess.busy.Store(false)
		if err != nil {
			if isTimeout(err) {
				s.reaped.Add(1)
			}
			return
		}
		// A close ends the session; so does a graceful drain, once the
		// current statement's response is delivered.
		if req.Type == wire.ReqClose || s.draining.Load() {
			return
		}
	}
}

// dispatch handles one request frame and builds its response frame.
func (s *Server) dispatch(sess *session, req *wire.Request) *wire.Response {
	switch req.Type {
	case wire.ReqQuery:
		return s.execSQL(sess, req.SQL)
	case wire.ReqHello:
		// HELLO is only meaningful as a connection's first frame.
		return badRequest("hello after session start")
	case wire.ReqClose:
		return &wire.Response{Type: wire.RespOK}
	default:
		return badRequest(fmt.Sprintf("unknown request type %q", req.Type))
	}
}

func badRequest(msg string) *wire.Response {
	return &wire.Response{Type: wire.RespError, Error: &wire.Error{Code: wire.CodeBadRequest, Message: msg}}
}

// execSQL runs one statement and encodes the outcome.
func (s *Server) execSQL(sess *session, sql string) *wire.Response {
	sess.queries.Add(1)
	res, err := s.eng.ExecUnboxed(s.baseCtx, sql)
	if err != nil {
		return errResponse(err)
	}
	wr, err := encodeResult(res, s.maxBlock)
	if err != nil {
		// A typed refusal on a session that lives on, instead of a frame
		// WriteFrame would reject after the fact.
		return errResponse(err)
	}
	return &wire.Response{Type: wire.RespResult, Result: wr}
}

func errResponse(err error) *wire.Response {
	return &wire.Response{Type: wire.RespError, Error: &wire.Error{
		Code:    wire.CodeFor(err),
		Message: err.Error(),
	}}
}

// encodeResult converts an engine result to its wire form — the result set
// straight from its columns, never boxed — flattening the PrepareReport to
// the degradation flags remote callers act on. A result set whose column
// block would pass maxBlock is refused before the block is built.
func encodeResult(res *engine.Result, maxBlock int) (*wire.Result, error) {
	block, size := wire.EncodeResult(res.Out, maxBlock)
	if size > maxBlock {
		return nil, fmt.Errorf("server: result of %d bytes exceeds frame limit", size)
	}
	wr := &wire.Result{
		Columns:        res.Columns,
		Rows:           block,
		RowsAffected:   res.RowsAffected,
		Plan:           res.Plan,
		CompileSeconds: res.Metrics.CompileSeconds,
		ExecSeconds:    res.Metrics.ExecSeconds,
		PlanCacheHit:   res.PlanCacheHit,
	}
	if res.Prepare != nil {
		wr.Degraded = res.Prepare.Degraded()
		for _, tr := range res.Prepare.Tables {
			if tr.Degraded() {
				wr.DegradedTables = append(wr.DegradedTables, tr.DegradeNote())
			}
		}
	}
	return wr, nil
}
