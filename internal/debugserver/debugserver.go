// Package debugserver is the engine's opt-in embedded HTTP debug endpoint.
// It serves the Prometheus metrics exposition, the Go pprof profiles, and
// JSON views of the QSS archive and the statement flight recorder — the
// operator-facing surface of the observability layer. Nothing in the engine
// depends on it; jitsbench (or any embedder) starts one explicitly with
// -debug-addr, and a process that never starts it pays nothing.
//
//	GET /metrics         Prometheus text exposition of the attached engine and server
//	GET /debug/pprof/    net/http/pprof index (profile, heap, goroutine, …)
//	GET /debug/archive   QSS archive histograms as JSON
//	GET /debug/queries   flight-recorder records + post-mortems as JSON
//	GET /debug/accuracy  accuracy-ledger rows + drift states as JSON
//	GET /debug/health    engine open/closed + degradation + drift as JSON
//	GET /debug/sessions  live SQL-service sessions as JSON (when serving)
//
// The server holds the engine behind an atomic pointer: endpoints stay safe
// (and merely report "closed") while the engine shuts down, and a test can
// swap engines under a live server.
package debugserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/metrics"
)

// Server is one embedded debug HTTP server. Create with New, start with
// Start, stop with Close.
type Server struct {
	eng atomic.Pointer[engine.Engine]
	// sessions supplies the live SQL-service session snapshots for
	// /debug/sessions; nil until a server is attached. Held as a pointer so
	// attachment is race-free against in-flight requests, and typed as a
	// closure so this package needs no dependency on internal/server.
	sessions atomic.Pointer[func() any]
	// serverMetrics supplies the attached SQL service's series for /metrics,
	// next to the engine's; nil until a server is attached.
	serverMetrics atomic.Pointer[func() metrics.Set]
	// draining reports whether the attached SQL service is in graceful
	// shutdown; /debug/health turns it into a 503 so load balancers stop
	// routing to this node while in-flight statements finish.
	draining atomic.Pointer[func() bool]
	ln       net.Listener
	srv      *http.Server
}

// New returns an unstarted server for the given engine (which may be nil
// and set later with SetEngine).
func New(eng *engine.Engine) *Server {
	s := &Server{}
	if eng != nil {
		s.eng.Store(eng)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/archive", s.handleArchive)
	mux.HandleFunc("/debug/queries", s.handleQueries)
	mux.HandleFunc("/debug/accuracy", s.handleAccuracy)
	mux.HandleFunc("/debug/health", s.handleHealth)
	mux.HandleFunc("/debug/sessions", s.handleSessions)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return s
}

// SetEngine swaps the engine the endpoints report on (nil detaches it).
func (s *Server) SetEngine(eng *engine.Engine) {
	if eng == nil {
		s.eng.Store(nil)
		return
	}
	s.eng.Store(eng)
}

// SetSessionSource attaches the SQL service's session snapshot function
// (typically server.Sessions wrapped to return any); nil detaches it.
func (s *Server) SetSessionSource(fn func() any) {
	if fn == nil {
		s.sessions.Store(nil)
		return
	}
	s.sessions.Store(&fn)
}

// SetMetricsSource attaches the SQL service's series (typically
// server.Scrape) to /metrics; nil detaches it.
func (s *Server) SetMetricsSource(fn func() metrics.Set) {
	if fn == nil {
		s.serverMetrics.Store(nil)
		return
	}
	s.serverMetrics.Store(&fn)
}

// SetDrainingSource attaches the SQL service's draining probe (typically
// server.Draining); nil detaches it.
func (s *Server) SetDrainingSource(fn func() bool) {
	if fn == nil {
		s.draining.Store(nil)
		return
	}
	s.draining.Store(&fn)
}

// Start begins listening on addr (host:port; port 0 picks a free port) and
// serves in a background goroutine until Close. It returns the bound
// address, so callers using port 0 can discover the real port.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("debugserver: listen %s: %w", addr, err)
	}
	s.ln = ln
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close shuts the server down, waiting briefly for in-flight requests. A
// connection still open when the wait runs out — net/http counts one a client
// opened but has not used yet as busy for five seconds — is closed under its
// peer: Close returns with every listener and connection shut either way.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		return s.srv.Close()
	}
	return err
}

// handleMetrics renders the attached engine's Scrape and the attached
// server's series; with neither attached the exposition is empty.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var set metrics.Set
	if eng := s.eng.Load(); eng != nil {
		set = eng.Scrape()
	}
	if fn := s.serverMetrics.Load(); fn != nil {
		set = append(set, (*fn)()...)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = set.WriteText(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// engineOr503 returns the attached engine or writes a 503 and returns nil.
func (s *Server) engineOr503(w http.ResponseWriter) *engine.Engine {
	eng := s.eng.Load()
	if eng == nil {
		http.Error(w, `{"error":"no engine attached"}`, http.StatusServiceUnavailable)
		return nil
	}
	return eng
}

func (s *Server) handleArchive(w http.ResponseWriter, _ *http.Request) {
	eng := s.engineOr503(w)
	if eng == nil {
		return
	}
	arch := eng.JITS().Archive()
	writeJSON(w, map[string]any{
		"histograms":   arch.Snapshot(),
		"buckets":      arch.Buckets(),
		"memo_entries": arch.MemoEntries(),
	})
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	eng := s.engineOr503(w)
	if eng == nil {
		return
	}
	last := 0
	if v := r.URL.Query().Get("last"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &last); err != nil || last < 0 {
			http.Error(w, `{"error":"invalid last parameter"}`, http.StatusBadRequest)
			return
		}
	}
	rec := eng.Recorder()
	writeJSON(w, map[string]any{
		"enabled":     rec.Enabled(),
		"capacity":    rec.Capacity(),
		"total":       rec.Total(),
		"records":     rec.Last(last),
		"postmortems": rec.PostMortems(),
	})
}

// handleAccuracy serves the estimator-accuracy ledger: every tracked
// statistic with its freshness state and drift evidence, plus the per-state
// totals. ?table=t filters to one table's statistics.
func (s *Server) handleAccuracy(w http.ResponseWriter, r *http.Request) {
	eng := s.engineOr503(w)
	if eng == nil {
		return
	}
	led := eng.Accuracy()
	tracked, fresh, aging, drifted := led.Counts()
	writeJSON(w, map[string]any{
		"enabled": led.Enabled(),
		"tracked": tracked,
		"fresh":   fresh,
		"aging":   aging,
		"drifted": drifted,
		"stats":   led.Snapshot(r.URL.Query().Get("table")),
	})
}

func (s *Server) handleSessions(w http.ResponseWriter, _ *http.Request) {
	fn := s.sessions.Load()
	if fn == nil {
		writeJSON(w, map[string]any{"serving": false, "sessions": []any{}})
		return
	}
	writeJSON(w, map[string]any{"serving": true, "sessions": (*fn)()})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	eng := s.eng.Load()
	if eng == nil {
		writeJSON(w, map[string]any{"status": "no-engine"})
		return
	}
	status := "ok"
	code := http.StatusOK
	if eng.Closed() {
		status = "closed"
	}
	// A draining SQL service fails the probe: the node is going away, stop
	// routing to it even though in-flight statements are still finishing.
	if fn := s.draining.Load(); fn != nil && (*fn)() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	deg := eng.Degradation()
	degradation := make(map[string]int64)
	for _, cause := range costmodel.DegradeCauses() {
		degradation[cause.String()] = deg.Of(cause)
	}
	// Drift is surfaced on health (counts only; /debug/accuracy has the
	// rows) so a fleet dashboard sees stale statistics without another
	// scrape target — but drifted stats alone never fail the probe: the
	// node still serves correctly, just possibly with worse plans.
	tracked, fresh, aging, drifted := eng.Accuracy().Counts()
	writeJSONStatus(w, code, map[string]any{
		"status":      status,
		"degradation": degradation,
		"governor":    eng.Governor().Snapshot(),
		"drift": map[string]any{
			"enabled": eng.Accuracy().Enabled(),
			"tracked": tracked,
			"fresh":   fresh,
			"aging":   aging,
			"drifted": drifted,
		},
	})
}
