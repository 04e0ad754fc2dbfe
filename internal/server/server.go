// Package server is the multi-session SQL service: it listens on TCP,
// speaks the internal/wire frame protocol, and multiplexes any number of
// client sessions onto one embedded engine via engine.ExecUnboxed.
//
// A session is one logical client conversation, opened by the HELLO that
// must be a connection's first frame (anything else is refused with a
// bad_request error and the connection closes). It owns its per-session
// execution options (parallelism, statement timeout), its prepared-statement
// table, its request-deduplication cache, and — for each statement it runs —
// the governor admission ticket and memory reservation the engine leases on
// its behalf. The engine's plan cache sits below all sessions, so a
// statement compiled by one session is reused by every other (subject to
// archive-epoch invalidation on DML).
//
// The wire path is defended against misbehaving networks and peers:
//
//   - Per-frame read/write deadlines (Config.IdleTimeout between frames,
//     Config.FrameTimeout mid-frame and for response writes) reap a stalled
//     or vanished peer instead of parking a goroutine on it forever; reaps
//     are metered as server_sessions_reaped_total.
//   - Every session gets a resume token in its welcome. When its connection
//     dies — reset, torn frame, reaped stall — the session state is parked
//     for Config.ResumeWindow, and a new connection saying HELLO with the
//     token reattaches to it: options, prepared statements, and the dedup
//     cache survive the reconnect.
//   - The dedup cache holds the last DefaultDedupCacheSize (request ID →
//     response) pairs. A client re-sending an in-doubt request under its
//     original ID gets the cached response if the statement already ran —
//     a DML can never double-apply across a reconnect — and a normal
//     execution if it never ran. A remembered result holds its rows as the
//     encoded column block, the bytes a re-send writes.
//   - A result whose column block exceeds wire.MaxBlockBytes is answered
//     with a typed error frame; the session stays usable.
//
// Shutdown(ctx) drains gracefully: stop accepting, let each session finish
// the statement it is executing (responses included), then close. If the
// context expires first it falls back to Close's hard cancel — the base
// context is cancelled, which aborts in-flight statements at the next
// morsel boundary, and every governor slot still drains to zero.
//
// Errors cross the wire typed: govern.ErrOverloaded, govern.ErrMemoryBudget
// and engine.ErrClosed map to distinct codes (wire.CodeFor), which the
// client resurrects as wrapped sentinels — a remote caller's errors.Is
// checks behave exactly like an embedded caller's.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sqlparser"
	"repro/internal/wire"
)

// The server_requests_total and server_errors_total labels: every request
// type and error code the protocol defines, and "other" for anything else a
// peer sends, so a client cannot grow the series set.
var (
	requestTypes = [...]string{wire.ReqHello, wire.ReqQuery, wire.ReqPrepare, wire.ReqExecute,
		wire.ReqOptions, wire.ReqPing, wire.ReqClose, "other"}
	errorCodes = [...]string{wire.CodeOverloaded, wire.CodeMemoryBudget, wire.CodeClosed,
		wire.CodeDraining, wire.CodeTimeout, wire.CodeBadRequest, wire.CodeResumeExpired,
		wire.CodeDedupMiss, wire.CodeError, "other"}
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

// Session defaults.
const (
	// DefaultResumeWindow is how long a dropped session stays resumable
	// under the zero Config.
	DefaultResumeWindow = time.Minute
	// DefaultDedupCacheSize is the per-session (request ID → response)
	// cache depth. The protocol allows one outstanding request per
	// connection, so even a cache of one guarantees exactly-once for an
	// in-doubt re-send; the extra slots are headroom, not correctness.
	DefaultDedupCacheSize = 16
	// resumeAttachWait bounds how long a HELLO-with-token waits for the
	// token's previous connection to notice it is dead and park the
	// session. A client usually reconnects before the server has seen the
	// old connection fail, so the resume path must be willing to wait for
	// the park instead of declaring the token unknown.
	resumeAttachWait = 2 * time.Second
)

// Config tunes the server's wire-robustness behaviour. The zero value keeps
// every defence that needs a policy decision disabled (no deadlines) and
// every defence that doesn't (resume, dedup) on with defaults.
type Config struct {
	// IdleTimeout bounds how long a session may sit between frames before
	// its connection is reaped (the session itself is parked and stays
	// resumable). 0 disables the reaper.
	IdleTimeout time.Duration
	// FrameTimeout bounds the rest of a frame once its header has arrived,
	// and each response write. 0 disables both deadlines.
	FrameTimeout time.Duration
	// ResumeWindow is how long a dropped session's state is retained for
	// resume; 0 selects DefaultResumeWindow, negative disables resume.
	ResumeWindow time.Duration
	// ConnWrapper, when non-nil, wraps every accepted connection — the
	// chaos suite injects deterministic network faults here
	// (faultinject.WrapConn).
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
	tokens   map[string]*session // active sessions by resume token
	parked   map[string]*session // resumable sessions by token
	nextSess int64

	// Totals for Scrape: sessions accepted, reaped by a deadline and
	// resumed, requests answered from a dedup cache, request frames by
	// type and error frames by code.
	sessionsTotal, reaped, resumed, dedupHits atomic.Int64
	requests                                  [len(requestTypes)]atomic.Int64
	errorFrames                               [len(errorCodes)]atomic.Int64
}

// dedupEntry is one remembered (request ID → response) pair.
type dedupEntry struct {
	id   uint64
	resp *wire.Response
}

// session is one client conversation's server-side state. It outlives any
// single connection: on connection death it is parked and a later HELLO
// with its token reattaches it. Exactly one goroutine owns a session at a
// time (ownership hands off through the server mutex at park/resume), so
// the dedup fields need no lock of their own; mu guards what the debug
// server's Sessions() snapshot reads concurrently with the owner.
type session struct {
	id     int64
	token  string // the resume token its HELLO was welcomed with
	remote string
	start  time.Time

	mu   sync.Mutex
	opts engine.ExecOptions
	conn net.Conn // current connection; swapped on resume, closed by Close/Shutdown

	// stmts is the prepared-statement table: handle → normalized SQL. The
	// compiled plan itself lives in the engine's shared plan cache; the
	// session only pins the text, so a prepared statement transparently
	// recompiles after an epoch bump instead of replaying a stale plan.
	stmts    map[int64]string
	nextStmt int64

	// Dedup state, owner-goroutine only: the highest executed request ID
	// and the ring of recent responses.
	lastReqID uint64
	dedup     []dedupEntry
	// justResumed tags the next executed statement's flight-recorder record
	// with the resume annotation. Owner-goroutine only.
	justResumed bool

	// busy is true while the owner goroutine is executing a request (from
	// frame decode to response written); Shutdown severs only idle
	// connections so in-flight statements finish and deliver.
	busy atomic.Bool

	queries atomic.Int64
	resumes atomic.Int64
	expires time.Time // park expiry; meaningful only while parked
}

// execOpts snapshots the session's options under its lock.
func (sess *session) execOpts() engine.ExecOptions {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.opts
}

// setConn swaps the session's connection under its lock (resume attach).
func (sess *session) setConn(conn net.Conn, remote string) {
	sess.mu.Lock()
	sess.conn = conn
	sess.remote = remote
	sess.mu.Unlock()
}

// closeConn severs the session's current connection, if any.
func (sess *session) closeConn() {
	sess.mu.Lock()
	conn := sess.conn
	sess.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// cached returns the remembered response for id, or nil.
func (sess *session) cached(id uint64) *wire.Response {
	for i := range sess.dedup {
		if sess.dedup[i].id == id {
			return sess.dedup[i].resp
		}
	}
	return nil
}

// remember stores a response in the dedup ring, evicting the oldest entry
// past DefaultDedupCacheSize.
func (sess *session) remember(id uint64, resp *wire.Response) {
	sess.dedup = append(sess.dedup, dedupEntry{id: id, resp: resp})
	if len(sess.dedup) > DefaultDedupCacheSize {
		sess.dedup = sess.dedup[len(sess.dedup)-DefaultDedupCacheSize:]
	}
}

// SessionInfo is one session's introspection snapshot (/debug/sessions).
type SessionInfo struct {
	ID            int64     `json:"id"`
	Remote        string    `json:"remote"`
	Started       time.Time `json:"started"`
	Statements    int64     `json:"statements"`
	PreparedStmts int       `json:"prepared_stmts"`
	Parallelism   int       `json:"parallelism,omitempty"`
	TimeoutMS     int64     `json:"timeout_ms,omitempty"`
	Resumes       int64     `json:"resumes,omitempty"`
}

// New returns an unstarted server for the engine with the zero Config.
func New(eng *engine.Engine) *Server { return NewWith(eng, Config{}) }

// NewWith returns an unstarted server for the engine with cfg.
func NewWith(eng *engine.Engine, cfg Config) *Server {
	if cfg.ResumeWindow == 0 {
		cfg.ResumeWindow = DefaultResumeWindow
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		eng:      eng,
		cfg:      cfg,
		maxBlock: wire.MaxBlockBytes,
		baseCtx:  ctx,
		cancel:   cancel,
		sessions: make(map[int64]*session),
		tokens:   make(map[string]*session),
		parked:   make(map[string]*session),
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

// Addr returns the bound address, or "" before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Engine returns the engine this server fronts.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Draining reports whether a graceful Shutdown is in progress (the debug
// server's health endpoint turns this into a 503).
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server gracefully: stop accepting, drop parked
// sessions, sever idle connections, and let every in-flight statement
// finish and deliver its response. If ctx expires first, it falls back to
// the hard path — cancel the base context (aborting in-flight statements at
// the next morsel boundary) and sever everything — and returns ctx.Err().
// Either way, when Shutdown returns no session goroutine is running and
// every governor slot and memory reservation leased for a session statement
// has been released.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Load() {
		return nil
	}
	s.draining.Store(true)
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.mu.Lock()
	s.parked = make(map[string]*session)
	for _, sess := range s.sessions {
		if !sess.busy.Load() {
			sess.closeConn()
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
		s.mu.Lock()
		for _, sess := range s.sessions {
			sess.closeConn()
		}
		s.mu.Unlock()
		<-done
	}
	s.closed.Store(true)
	s.cancel()
	// Engine drain hook: by now every handler has returned and released its
	// ticket, so this is a cheap proof that the governor is back to zero —
	// bounded separately in case another embedder still runs statements.
	drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = s.eng.Drain(drainCtx)
	return hardErr
}

// Close stops accepting, cancels every in-flight statement, closes all
// session connections, and waits for the handlers to drain. After Close
// returns, no session goroutine is running and every governor slot and
// memory reservation leased for a session statement has been released.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.draining.Store(true)
	s.cancel()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.mu.Lock()
	s.parked = make(map[string]*session)
	for _, sess := range s.sessions {
		sess.closeConn()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Sessions returns introspection snapshots of the live sessions, for the
// debug server's /debug/sessions endpoint.
func (s *Server) Sessions() []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepParkedLocked()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sess.mu.Lock()
		info := SessionInfo{
			ID:            sess.id,
			Remote:        sess.remote,
			Started:       sess.start,
			Statements:    sess.queries.Load(),
			PreparedStmts: len(sess.stmts),
			Parallelism:   sess.opts.Parallelism,
			TimeoutMS:     int64(sess.opts.Timeout / time.Millisecond),
			Resumes:       sess.resumes.Load(),
		}
		sess.mu.Unlock()
		out = append(out, info)
	}
	return out
}

// Scrape returns the server's server_* series: its session, dedup, request
// and error-frame totals, and the active sessions read from the live session
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
	set.Counter("server_sessions_resumed_total",
		"Parked sessions reattached by a HELLO with their resume token.", float64(s.resumed.Load()))
	set.Counter("server_dedup_hits_total",
		"Requests answered from the per-session dedup cache instead of re-executing.", float64(s.dedupHits.Load()))
	set.CounterBy("server_requests_total", "Request frames handled, by frame type.", "type",
		byLabel(requestTypes[:], s.requests[:]))
	set.CounterBy("server_errors_total", "Error frames sent, by wire error code.", "code",
		byLabel(errorCodes[:], s.errorFrames[:]))
	return set
}

// sweepParkedLocked drops parked sessions whose resume window has passed.
// Callers hold s.mu.
func (s *Server) sweepParkedLocked() {
	now := time.Now()
	for token, sess := range s.parked {
		if now.After(sess.expires) {
			delete(s.parked, token)
		}
	}
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
		s.mu.Lock()
		closed := s.closed.Load() || s.draining.Load()
		s.sweepParkedLocked()
		s.mu.Unlock()
		if closed {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// newToken mints a resume token. Tokens only need to be unguessable enough
// to not collide; 16 random bytes are plenty.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: token entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// handleConn reads the connection's first frame, which must be a HELLO: it
// opens or resumes a session. Any other first frame is answered with a
// bad_request error and the connection closes.
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
	var sess *session
	if req.Token == "" {
		sess = s.register(conn)
		if sess == nil {
			_ = conn.Close()
			return
		}
		if err := wire.WriteFrameDeadline(conn, &wire.Response{Type: wire.RespWelcome, Token: sess.token}, s.cfg.FrameTimeout); err != nil {
			s.release(sess, false)
			return
		}
	} else {
		sess = s.resume(conn, req.Token)
		if sess == nil {
			s.refuse(conn, wire.CodeResumeExpired, "server: unknown or expired resume token")
			return
		}
		s.resumed.Add(1)
		if err := wire.WriteFrameDeadline(conn, &wire.Response{Type: wire.RespWelcome, Token: sess.token, Resumed: true}, s.cfg.FrameTimeout); err != nil {
			s.release(sess, true)
			return
		}
	}
	s.handleSession(sess, conn)
}

// refuse answers a connection's first frame with a typed error and closes
// the connection.
func (s *Server) refuse(conn net.Conn, code, msg string) {
	s.errorFrames[labelIndex(errorCodes[:], code)].Add(1)
	_ = wire.WriteFrameDeadline(conn, &wire.Response{Type: wire.RespError, Error: &wire.Error{Code: code, Message: msg}}, s.cfg.FrameTimeout)
	_ = conn.Close()
}

// register creates and registers a fresh session for conn under a new
// resume token, or returns nil when the server is closing.
func (s *Server) register(conn net.Conn) *session {
	sess := &session{
		token:  newToken(),
		conn:   conn,
		remote: conn.RemoteAddr().String(),
		start:  time.Now(),
		stmts:  make(map[int64]string),
	}
	s.mu.Lock()
	if s.closed.Load() || s.draining.Load() {
		s.mu.Unlock()
		return nil
	}
	s.nextSess++
	sess.id = s.nextSess
	s.sessions[sess.id] = sess
	s.tokens[sess.token] = sess
	s.mu.Unlock()
	s.sessionsTotal.Add(1)
	return sess
}

// resume reattaches the parked session for token to conn, or returns nil if
// the token is unknown or its window expired. If the token still names an
// ACTIVE session — the client reconnected before the server noticed the old
// connection die — the old connection is severed and resume waits briefly
// for the owner goroutine to park the session.
func (s *Server) resume(conn net.Conn, token string) *session {
	deadline := time.Now().Add(resumeAttachWait)
	for {
		s.mu.Lock()
		if s.closed.Load() || s.draining.Load() {
			s.mu.Unlock()
			return nil
		}
		s.sweepParkedLocked()
		if sess, ok := s.parked[token]; ok {
			delete(s.parked, token)
			s.sessions[sess.id] = sess
			s.tokens[token] = sess
			s.mu.Unlock()
			sess.setConn(conn, conn.RemoteAddr().String())
			sess.resumes.Add(1)
			sess.justResumed = true
			return sess
		}
		active, live := s.tokens[token]
		s.mu.Unlock()
		if !live {
			return nil // never existed, or expired out of the parked map
		}
		// The previous connection hasn't failed yet from the server's point
		// of view: sever it and wait for the owner goroutine to park.
		active.closeConn()
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// release detaches a session whose connection is gone. When park is true
// (and resumption is on, and the server is not shutting down) the
// state moves to the parked map for ResumeWindow; otherwise it is dropped.
func (s *Server) release(sess *session, park bool) {
	sess.closeConn()
	s.mu.Lock()
	delete(s.sessions, sess.id)
	delete(s.tokens, sess.token)
	if park && s.cfg.ResumeWindow > 0 && !s.closed.Load() && !s.draining.Load() {
		sess.expires = time.Now().Add(s.cfg.ResumeWindow)
		s.parked[sess.token] = sess
	}
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
func (s *Server) handleSession(sess *session, conn net.Conn) {
	for {
		var req wire.Request
		if err := wire.ReadFrameDeadline(conn, &req, s.cfg.IdleTimeout, s.cfg.FrameTimeout); err != nil {
			if isTimeout(err) {
				s.reaped.Add(1)
			}
			s.release(sess, true)
			return
		}
		s.requests[labelIndex(requestTypes[:], req.Type)].Add(1)
		sess.busy.Store(true)
		resp := s.dispatchDedup(sess, &req)
		if resp.Type == wire.RespError {
			s.errorFrames[labelIndex(errorCodes[:], resp.Error.Code)].Add(1)
		}
		err := wire.WriteFrameDeadline(conn, resp, s.cfg.FrameTimeout)
		sess.busy.Store(false)
		if err != nil {
			if isTimeout(err) {
				s.reaped.Add(1)
			}
			s.release(sess, true)
			return
		}
		if req.Type == wire.ReqClose {
			s.release(sess, false)
			return
		}
		if s.draining.Load() {
			// Graceful drain: the current statement finished and its
			// response is delivered; end the session instead of reading
			// further requests.
			s.release(sess, false)
			return
		}
	}
}

// dispatchDedup wraps dispatch with the exactly-once bookkeeping: a re-sent
// request ID is answered from the cache without re-executing, an ID that
// already fell out of the window is refused (the outcome is unknowable),
// and every fresh response with an ID is remembered.
func (s *Server) dispatchDedup(sess *session, req *wire.Request) *wire.Response {
	if req.ID != 0 {
		if resp := sess.cached(req.ID); resp != nil {
			s.dedupHits.Add(1)
			return resp
		}
		if req.ID <= sess.lastReqID {
			return &wire.Response{Type: wire.RespError, ID: req.ID, Error: &wire.Error{
				Code:    wire.CodeDedupMiss,
				Message: fmt.Sprintf("request %d fell out of the dedup window; outcome unknown", req.ID),
			}}
		}
	}
	resp := s.dispatch(sess, req)
	resp.ID = req.ID
	if req.ID != 0 {
		sess.lastReqID = req.ID
		sess.remember(req.ID, resp)
	}
	return resp
}

// annotations builds the flight-recorder labels for one executed statement.
func (sess *session) annotations(req *wire.Request) []string {
	var ann []string
	if req.Retry > 0 {
		ann = append(ann, fmt.Sprintf("wire: retry attempt %d", req.Retry))
	}
	if sess.justResumed {
		sess.justResumed = false
		ann = append(ann, "wire: resumed session")
	}
	return ann
}

// dispatch handles one request frame and builds its response frame.
func (s *Server) dispatch(sess *session, req *wire.Request) *wire.Response {
	switch req.Type {
	case wire.ReqQuery:
		return s.execSQL(sess, req, req.SQL)

	case wire.ReqPrepare:
		// Normalization doubles as validation (unlexable SQL fails here, not
		// at execute) and makes the handle's text identical to the plan-cache
		// key the statement will compile under.
		norm, err := sqlparser.Normalize(req.SQL)
		if err != nil {
			return &wire.Response{Type: wire.RespError, Error: &wire.Error{
				Code: wire.CodeBadRequest, Message: err.Error(),
			}}
		}
		sess.mu.Lock()
		sess.nextStmt++
		id := sess.nextStmt
		sess.stmts[id] = norm
		sess.mu.Unlock()
		return &wire.Response{Type: wire.RespPrepared, StmtID: id}

	case wire.ReqExecute:
		sess.mu.Lock()
		sql, ok := sess.stmts[req.StmtID]
		sess.mu.Unlock()
		if !ok {
			return &wire.Response{Type: wire.RespError, Error: &wire.Error{
				Code: wire.CodeBadRequest, Message: fmt.Sprintf("unknown stmt_id %d", req.StmtID),
			}}
		}
		return s.execSQL(sess, req, sql)

	case wire.ReqOptions:
		sess.mu.Lock()
		sess.opts.Parallelism = req.Parallelism
		sess.opts.Timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		sess.mu.Unlock()
		return &wire.Response{Type: wire.RespOK}

	case wire.ReqPing:
		return &wire.Response{Type: wire.RespPong}

	case wire.ReqHello:
		// HELLO is only meaningful as a connection's first frame.
		return &wire.Response{Type: wire.RespError, Error: &wire.Error{
			Code: wire.CodeBadRequest, Message: "hello after session start",
		}}

	case wire.ReqClose:
		return &wire.Response{Type: wire.RespOK}

	default:
		return &wire.Response{Type: wire.RespError, Error: &wire.Error{
			Code: wire.CodeBadRequest, Message: fmt.Sprintf("unknown request type %q", req.Type),
		}}
	}
}

// execSQL runs one statement — a query's text or a prepared handle's — under
// the session's options and encodes the outcome.
func (s *Server) execSQL(sess *session, req *wire.Request, sql string) *wire.Response {
	sess.queries.Add(1)
	opts := sess.execOpts()
	opts.Annotations = sess.annotations(req)
	res, err := s.eng.ExecUnboxed(s.baseCtx, sql, opts)
	if err != nil {
		return errResponse(err)
	}
	wr, err := encodeResult(res, s.maxBlock)
	if err != nil {
		// A typed refusal on a session that lives on — and, remembered by
		// the dedup ring, the answer a retry gets too — instead of a frame
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
		wr.Degraded = res.Prepare.Degraded
		for _, tr := range res.Prepare.Tables {
			if tr.Degraded {
				wr.DegradedTables = append(wr.DegradedTables, tr.DegradeNote())
			}
		}
	}
	return wr, nil
}
