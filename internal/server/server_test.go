package server_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/debugserver"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/flightrec"
	"repro/internal/qgm"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/wire"
	"repro/internal/workload"
)

// serveConfig is the canonical test configuration: JITS on with a small
// sample, plan cache on. Differential tests build TWO engines from the same
// call so both evolve in lockstep.
func serveConfig(dop int) engine.Config {
	cfg := engine.Config{Parallelism: dop, PlanCacheSize: 512}
	cfg.JITS.Enabled = true
	cfg.JITS.SMax = 0.5
	cfg.JITS.SampleSize = 800
	cfg.JITS.Seed = 7
	return cfg
}

// loadedEngine builds an engine with a deterministic workload dataset.
func loadedEngine(t testing.TB, cfg engine.Config, scale float64) (*engine.Engine, *workload.Dataset) {
	t.Helper()
	e := engine.New(cfg)
	d, err := workload.Load(e, workload.Spec{Scale: scale, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

// startServer starts a server for eng on a free port and registers cleanup.
func startServer(t testing.TB, eng *engine.Engine) (*server.Server, string) {
	t.Helper()
	srv := server.New(eng)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, addr
}

// TestServeSmoke exercises the full service surface over one session:
// queries, the plan cache across them, typed errors, the session
// introspection snapshot and the /debug/sessions endpoint.
func TestServeSmoke(t *testing.T) {
	cfg := serveConfig(0)
	cfg.JITS.SampleSize = 200
	eng, _ := loadedEngine(t, cfg, 0.002)
	srv, addr := startServer(t, eng)

	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Plain query.
	res, err := conn.Query(`SELECT c.id, c.price FROM car c WHERE c.make = 'Toyota'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no Toyota rows in the seeded dataset")
	}

	// A repeated statement: the second run must come from the plan cache.
	const ottawa = `SELECT o.id FROM owner o WHERE o.city = 'Ottawa'`
	first, err := conn.Query(ottawa)
	if err != nil {
		t.Fatal(err)
	}
	second, err := conn.Query(ottawa)
	if err != nil {
		t.Fatal(err)
	}
	if !second.PlanCacheHit {
		t.Fatal("second run missed the plan cache")
	}
	if len(first.Rows) != len(second.Rows) {
		t.Fatalf("executions disagree: %d vs %d rows", len(first.Rows), len(second.Rows))
	}

	// DML through the wire, then the cached plan must not be reused.
	ins, err := conn.Query(`INSERT INTO owner VALUES (990001, 'smoke', 'Ottawa', 'CA', 1000.0)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.RowsAffected != 1 {
		t.Fatalf("INSERT affected %d rows", ins.RowsAffected)
	}
	third, err := conn.Query(ottawa)
	if err != nil {
		t.Fatal(err)
	}
	if third.PlanCacheHit {
		t.Fatal("stale plan reused after DML")
	}
	if len(third.Rows) != len(second.Rows)+1 {
		t.Fatalf("inserted row not visible: %d rows, want %d", len(third.Rows), len(second.Rows)+1)
	}

	// Typed errors: bad SQL.
	if _, err := conn.Query(`SELECT id FROM nonexistent`); err == nil {
		t.Fatal("query on missing table succeeded")
	} else {
		var se *client.Error
		if !errors.As(err, &se) || se.Code != wire.CodeError {
			t.Fatalf("unexpected error %v", err)
		}
	}
	// A statement the query builder rejects with a typed error is a plain
	// statement error on the wire, message intact, and the session lives on.
	_, derr := eng.Exec(`SELECT DISTINCT o.city FROM owner o ORDER BY o.salary`)
	if !errors.Is(derr, qgm.ErrDistinctOrderBy) || wire.CodeFor(derr) != wire.CodeError {
		t.Fatalf("DISTINCT ordered by an unselected column: %v (code %s)", derr, wire.CodeFor(derr))
	}
	if _, err := conn.Query(`SELECT DISTINCT o.city FROM owner o ORDER BY o.salary`); err == nil {
		t.Fatal("DISTINCT ordered by an unselected column succeeded over the wire")
	} else {
		var se *client.Error
		if !errors.As(err, &se) || se.Code != wire.CodeError || !strings.Contains(se.Message, "ORDER BY columns must appear in the select list") {
			t.Fatalf("unexpected error %v", err)
		}
	}
	if _, err := conn.Query(`SELECT 'unterminated`); err == nil {
		t.Fatal("unlexable query succeeded")
	} else {
		var se *client.Error
		if !errors.As(err, &se) || se.Code != wire.CodeError {
			t.Fatalf("unexpected error %v", err)
		}
	}
	// Session introspection: our session is visible with its statements.
	infos := srv.Sessions()
	if len(infos) != 1 {
		t.Fatalf("%d sessions, want 1", len(infos))
	}
	if infos[0].Statements != 8 {
		t.Fatalf("session info = %+v", infos[0])
	}

	// /debug/sessions through the embedded debug server.
	dbg := debugserver.New(eng)
	dbg.SetSessionSource(func() any { return srv.Sessions() })
	dbgAddr, err := dbg.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	httpRes, err := http.Get("http://" + dbgAddr + "/debug/sessions")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 4096)
	n, _ := httpRes.Body.Read(body)
	httpRes.Body.Close()
	if !strings.Contains(string(body[:n]), `"serving": true`) ||
		!strings.Contains(string(body[:n]), `"statements": 8`) {
		t.Fatalf("/debug/sessions = %s", body[:n])
	}

	// Clean close: session disappears.
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.Sessions()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session lingered after close: %+v", srv.Sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeRawFrames drives the wire protocol without the client package: a
// first frame that is not HELLO is refused and the connection closed, and
// within a session an unknown frame type and a second HELLO get bad_request,
// and a clean close frame is ack'd.
func TestServeRawFrames(t *testing.T) {
	cfg := serveConfig(0)
	cfg.JITS.Enabled = false
	eng, _ := loadedEngine(t, cfg, 0.002)
	_, addr := startServer(t, eng)

	// A first frame that is not HELLO opens nothing: bad_request, then the
	// server closes the connection.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, &wire.Request{Type: wire.ReqQuery, SQL: "SELECT COUNT(*) FROM car"}); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.ReadFrame(nc, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.RespError || resp.Error.Code != wire.CodeBadRequest {
		t.Fatalf("query before HELLO: %+v", resp)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := wire.ReadFrame(nc, &resp); err == nil {
		t.Fatalf("connection stayed open after a refused first frame: %+v", resp)
	}

	nc, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, &wire.Request{Type: wire.ReqHello}); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadFrame(nc, &resp); err != nil || resp.Type != wire.RespWelcome {
		t.Fatalf("hello: %+v, %v", resp, err)
	}
	if err := wire.WriteFrame(nc, &wire.Request{Type: "gibberish"}); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadFrame(nc, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.RespError || resp.Error.Code != wire.CodeBadRequest {
		t.Fatalf("unknown frame type: %+v", resp)
	}
	if err := wire.WriteFrame(nc, &wire.Request{Type: wire.ReqHello}); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadFrame(nc, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.RespError || resp.Error.Code != wire.CodeBadRequest {
		t.Fatalf("second hello: %+v", resp)
	}
	if err := wire.WriteFrame(nc, &wire.Request{Type: wire.ReqClose}); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadFrame(nc, &resp); err != nil || resp.Type != wire.RespOK {
		t.Fatalf("close ack: %+v, %v", resp, err)
	}
}

// sameBits is datum identity down to the bit: == except that floats compare
// by their IEEE-754 bits, so a NaN equals itself and −0 differs from 0.
func sameBits(a, b value.Datum) bool {
	if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a == b
}

// TestServeOversizeResult: a result too large for one frame is answered
// with a typed error on a session that stays usable — not a dropped
// connection after the statement already ran — and the same request sent
// again hears the same answer.
func TestServeOversizeResult(t *testing.T) {
	cfg := serveConfig(0)
	cfg.JITS.SampleSize = 200
	eng, _ := loadedEngine(t, cfg, 0.002)
	srv, addr := startServer(t, eng)
	srv.SetMaxBlock(256)

	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = conn.Query(`SELECT c.id, c.make, c.price FROM car c`)
	var werr *client.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeError || !strings.Contains(werr.Message, "exceeds frame limit") {
		t.Fatalf("oversize result: %v, want a typed frame-limit error", err)
	}
	small, err := conn.Query(`SELECT c.id FROM car c WHERE c.id = 1`)
	if err != nil || len(small.Rows) != 1 {
		t.Fatalf("session unusable after an oversize result: %v", err)
	}

	// The raw protocol: the refusal is an error frame, twice over, on a
	// connection that stays open.
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
	for attempt := 0; attempt < 2; attempt++ {
		req := &wire.Request{Type: wire.ReqQuery, SQL: `SELECT c.id, c.make FROM car c`}
		if err := wire.WriteFrame(nc, req); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := wire.ReadFrame(nc, &resp); err != nil {
			t.Fatalf("attempt %d: connection dropped: %v", attempt, err)
		}
		if resp.Type != wire.RespError || resp.Error.Code != wire.CodeError {
			t.Fatalf("attempt %d: %+v", attempt, resp)
		}
	}

	// The refusal comes before the block exists: everything a refused
	// statement allocates — execution, the encoder's sizing pass, the error
	// frame, both ends of the connection — is a fraction of the block it was
	// refused for (the same result boxed is several times the block).
	const wide = `SELECT c.id, c.ownerid, c.make, c.model, c.year, c.price, c.color, c.id AS id2, c.make AS make2,
		c.model AS model2, c.price AS price2, c.color AS color2, c.id AS id3, c.make AS make3, c.model AS model3,
		c.price AS price3, c.color AS color3, c.year AS year3 FROM car c`
	direct, err := eng.Exec(wide)
	if err != nil {
		t.Fatal(err)
	}
	block := len(wire.EncodeRows(direct.Rows))
	if _, err = conn.Query(wide); err == nil { // also warms the plan cache
		t.Fatalf("a result of %d bytes passed a limit of 256", block)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = conn.Query(wide)
	runtime.ReadMemStats(&after)
	if !errors.As(err, &werr) || !strings.Contains(werr.Message, fmt.Sprintf("result of %d bytes exceeds frame limit", block)) {
		t.Fatalf("refusal %v does not name the block's exact size %d", err, block)
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > uint64(block)/2 {
		t.Errorf("refusing a result of %d bytes allocated %d bytes; the block was built first", block, spent)
	}
}

// TestServeStringBytesExact: a string datum is served byte for byte. The
// engine stores a non-UTF-8 literal as is; a JSON row codec rewrote its
// invalid bytes to U+FFFD on the way out.
func TestServeStringBytesExact(t *testing.T) {
	cfg := serveConfig(0)
	cfg.JITS.SampleSize = 200
	eng, _ := loadedEngine(t, cfg, 0.002)
	_, addr := startServer(t, eng)
	// Request SQL travels as JSON, so the row goes in in-process.
	const name = "a\xffb\xc3"
	if _, err := eng.Exec("INSERT INTO owner VALUES (990002, '" + name + "', 'Ottawa', 'CA', 1000.0)"); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT o.id, o.name FROM owner o WHERE o.id = 990002`
	direct, err := eng.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Rows) != 1 || direct.Rows[0][1].Str() != name {
		t.Fatalf("embedded engine returned %v, want the literal's bytes", direct.Rows)
	}
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	served, err := conn.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(served.Rows) != 1 || served.Rows[0][1].Str() != name {
		t.Fatalf("served %q, embedded %q", served.Rows, name)
	}
}

// diffWire compares a served result against a direct engine result. The
// column block carries raw float bits and raw string bytes, so every cell
// must match exactly — no tolerance.
func diffWire(direct *engine.Result, served *client.Result) string {
	if got, want := strings.Join(served.Columns, ","), strings.Join(direct.Columns, ","); got != want {
		return fmt.Sprintf("columns %q vs %q", got, want)
	}
	if len(served.Rows) != len(direct.Rows) {
		return fmt.Sprintf("%d rows vs %d rows", len(served.Rows), len(direct.Rows))
	}
	for i := range direct.Rows {
		if len(served.Rows[i]) != len(direct.Rows[i]) {
			return fmt.Sprintf("row %d: %d cols vs %d", i, len(served.Rows[i]), len(direct.Rows[i]))
		}
		for j := range direct.Rows[i] {
			if !sameBits(served.Rows[i][j], direct.Rows[i][j]) {
				return fmt.Sprintf("row %d col %d: %v vs %v", i, j, served.Rows[i][j], direct.Rows[i][j])
			}
		}
	}
	if served.Plan != direct.Plan {
		return fmt.Sprintf("plans diverged:\nserved:\n%s\ndirect:\n%s", served.Plan, direct.Plan)
	}
	directDegraded := direct.Prepare != nil && direct.Prepare.Degraded()
	if served.Degraded != directDegraded {
		return fmt.Sprintf("degraded %v vs %v", served.Degraded, directDegraded)
	}
	if served.PlanCacheHit != direct.PlanCacheHit {
		return fmt.Sprintf("plan_cache_hit %v vs %v", served.PlanCacheHit, direct.PlanCacheHit)
	}
	if served.CompileSeconds != direct.Metrics.CompileSeconds || served.ExecSeconds != direct.Metrics.ExecSeconds {
		return fmt.Sprintf("metrics (%g,%g) vs (%g,%g)",
			served.CompileSeconds, served.ExecSeconds,
			direct.Metrics.CompileSeconds, direct.Metrics.ExecSeconds)
	}
	return ""
}

// TestWireDifferentialWorkload replays the paper workload through a real
// TCP server and through a direct in-process engine with identical
// configuration, and requires byte-identical results — rows, plans,
// degradation flags, cache-hit flags, simulated timings — statement by
// statement, at serial and parallel DOP. A warm replay then pins that the
// second pass is served from the plan cache on both sides.
func TestWireDifferentialWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("wire differential replay is slow")
	}
	for _, dop := range []int{1, 4} {
		t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
			served, d := loadedEngine(t, serveConfig(dop), 0.004)
			direct, _ := loadedEngine(t, serveConfig(dop), 0.004)
			_, addr := startServer(t, served)
			conn, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			run := func(sql string) (string, error) {
				dres, derr := direct.Exec(sql)
				cres, cerr := conn.Query(sql)
				if (derr == nil) != (cerr == nil) {
					return "", fmt.Errorf("direct err %v, served err %v", derr, cerr)
				}
				if derr != nil {
					var se *client.Error
					if !errors.As(cerr, &se) || se.Message != derr.Error() {
						return "", fmt.Errorf("error text diverged: %q vs %q", cerr, derr)
					}
					return "", nil
				}
				if dres.RowsAffected != cres.RowsAffected {
					return "", fmt.Errorf("rows affected %d vs %d", cres.RowsAffected, dres.RowsAffected)
				}
				return diffWire(dres, cres), nil
			}

			// Cold pass: the full 220-statement workload, DML included.
			stmts := d.Workload(220, 99, true)
			queries := 0
			for i, st := range stmts {
				diff, err := run(st.SQL)
				if err != nil {
					t.Fatalf("stmt %d %q: %v", i, st.SQL, err)
				}
				if diff != "" {
					t.Fatalf("stmt %d %q: %s", i, st.SQL, diff)
				}
				if st.IsQuery {
					queries++
				}
			}
			if queries < 200 {
				t.Fatalf("only %d queries compared", queries)
			}

			// Warm passes: replay a fixed query set twice with no DML in
			// between. Pass 1 compiles each statement at the current epoch;
			// pass 2 must be served from the plan cache on BOTH engines and
			// still agree byte for byte.
			warm := d.Queries(40, 123)
			for _, st := range warm {
				if diff, err := run(st.SQL); err != nil || diff != "" {
					t.Fatalf("warm-1 %q: %v%s", st.SQL, err, diff)
				}
			}
			hits := func() float64 {
				for _, s := range served.Scrape().Samples() {
					if s.Name == "plan_cache_hits_total" {
						return s.Value
					}
				}
				return -1
			}
			hitsBefore := hits()
			for _, st := range warm {
				dres, derr := direct.Exec(st.SQL)
				cres, cerr := conn.Query(st.SQL)
				if derr != nil || cerr != nil {
					t.Fatalf("warm-2 %q: %v / %v", st.SQL, derr, cerr)
				}
				if !cres.PlanCacheHit || !dres.PlanCacheHit {
					t.Fatalf("warm-2 %q: not a cache hit (served %v, direct %v)",
						st.SQL, cres.PlanCacheHit, dres.PlanCacheHit)
				}
				if diff := diffWire(dres, cres); diff != "" {
					t.Fatalf("warm-2 %q: %s", st.SQL, diff)
				}
			}
			if after := hits(); after <= hitsBefore {
				t.Fatalf("plan_cache_hits did not grow across the warm pass: %v -> %v", hitsBefore, after)
			}
		})
	}
}

// TestSessionStressRace runs concurrent sessions mixing repeated queries,
// ad-hoc queries and DML against one served engine (run under -race).
// Afterwards a canary session proves no stale plan survived the DML churn,
// and Close drains every memory reservation.
func TestSessionStressRace(t *testing.T) {
	cfg := serveConfig(0)
	cfg.JITS.SampleSize = 200
	eng, d := loadedEngine(t, cfg, 0.002)
	srv, addr := startServer(t, eng)

	const sessions = 8
	const ops = 30
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := rand.New(rand.NewSource(int64(g)))
			qs := d.Queries(8, int64(100+g))
			nextID := 2000000 + g*1000
			for i := 0; i < ops; i++ {
				switch r.Intn(5) {
				case 0: // the session's repeated statement
					if _, err := conn.Query(qs[0].SQL); err != nil {
						errs <- fmt.Errorf("session %d repeat: %w", g, err)
						return
					}
				case 1: // DML with a session-unique key, then read it back
					id := nextID
					nextID++
					ins := fmt.Sprintf(`INSERT INTO car VALUES (%d, 1, 'Toyota', 'Camry', 2001, 9000.0, 'red')`, id)
					if res, err := conn.Query(ins); err != nil || res.RowsAffected != 1 {
						errs <- fmt.Errorf("session %d insert: %v (affected %v)", g, err, res)
						return
					}
					chk, err := conn.Query(fmt.Sprintf(`SELECT c.id FROM car c WHERE c.id = %d`, id))
					if err != nil || len(chk.Rows) != 1 {
						errs <- fmt.Errorf("session %d readback of id %d: %v, %d rows", g, id, err, len(chk.Rows))
						return
					}
				default: // ad-hoc query
					if _, err := conn.Query(qs[r.Intn(len(qs))].SQL); err != nil {
						errs <- fmt.Errorf("session %d query: %w", g, err)
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Quiescent canary: with no concurrent DML, a repeat hits; after DML the
	// plan must recompile and see the new row.
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const canary = `SELECT c.id FROM car c WHERE c.id = 3999999`
	if res, err := conn.Query(canary); err != nil || len(res.Rows) != 0 {
		t.Fatalf("canary precondition: %v, %d rows", err, len(res.Rows))
	}
	res, err := conn.Query(canary)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlanCacheHit {
		t.Fatal("quiescent repeat did not hit the plan cache")
	}
	if _, err := conn.Query(`INSERT INTO car VALUES (3999999, 1, 'Honda', 'Civic', 1999, 4000.0, 'blue')`); err != nil {
		t.Fatal(err)
	}
	res, err = conn.Query(canary)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCacheHit {
		t.Fatal("stale plan reused after DML")
	}
	if len(res.Rows) != 1 {
		t.Fatalf("inserted canary row not visible: %d rows", len(res.Rows))
	}

	// Shutdown: every memory reservation drains.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	requireDrained(t, eng, "Close")
	// The engine itself stays open: the server owns sessions, not the engine.
	if _, err := eng.Exec(`SELECT id FROM owner WHERE city = 'Ottawa'`); err != nil {
		t.Fatalf("engine unusable after server close: %v", err)
	}
	// The wire, however, is gone.
	if _, err := conn.Query(canary); err == nil {
		t.Fatal("query succeeded over a closed server")
	}
}

// TestServerCloseReleasesSlots closes the server while sessions are
// mid-stream and requires a clean drain: no live memory reservation,
// handlers stopped, double Close harmless.
func TestServerCloseReleasesSlots(t *testing.T) {
	cfg := serveConfig(0)
	cfg.JITS.SampleSize = 200
	eng, d := loadedEngine(t, cfg, 0.002)
	srv, addr := startServer(t, eng)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := client.Dial(addr)
			if err != nil {
				return
			}
			defer conn.Close()
			qs := d.Queries(4, int64(g))
			for i := 0; ; i++ { // stream until the server goes away
				if _, err := conn.Query(qs[i%len(qs)].SQL); err != nil {
					return
				}
			}
		}(g)
	}
	time.Sleep(100 * time.Millisecond) // let the sessions get going
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	requireDrained(t, eng, "Close")
	if len(srv.Sessions()) != 0 {
		t.Fatalf("sessions survived Close: %+v", srv.Sessions())
	}
}

// TestServedDegradationNotesAgree: a degradation is one event with one
// rendering. For an injected sampling fault on one table and on both, the notes a
// remote caller receives (wire.Result.DegradedTables), the notes the flight
// record files (DegradeCauses) and the PrepareReport's own DegradeNote are
// the same strings, and the scan line's EXPLAIN ANALYZE flag carries the same
// reason.
func TestServedDegradationNotesAgree(t *testing.T) {
	const sql = `SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND c.make = 'Toyota' AND o.city = 'Ottawa'`
	for _, tc := range []struct {
		name string
		spec faultinject.Spec
		want []string // nil: compare the three renderings to each other only
	}{
		// Tables are collected in name order: skipping the first check
		// lets car collect and degrades owner.
		{name: "one table", spec: faultinject.Spec{Offset: 1, Limit: 1},
			want: []string{"owner: sampling error: faultinject: injected fault at sampling.rows (fire 1)"}},
		{name: "sampling fault", spec: faultinject.Spec{Every: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Reset()
			t.Cleanup(faultinject.Reset)
			cfg := serveConfig(0)
			cfg.PlanCacheSize = 0
			cfg.FlightRecorderCapacity = -1
			cfg.JITS.SampleSize = 200
			cfg.JITS.ForceCollect = true
			eng, _ := loadedEngine(t, cfg, 0.002)
			_, addr := startServer(t, eng)
			conn, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := faultinject.Arm(faultinject.SamplingRows, tc.spec); err != nil {
				t.Fatal(err)
			}

			served, err := conn.Query("EXPLAIN ANALYZE " + sql)
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Reset()
			if !served.Degraded || len(served.DegradedTables) == 0 {
				t.Fatalf("served result not degraded: %+v", served)
			}
			if tc.want != nil && !slices.Equal(served.DegradedTables, tc.want) {
				t.Errorf("wire notes = %q, want %q", served.DegradedTables, tc.want)
			}
			recs := eng.Recorder().Last(1)
			if len(recs) != 1 || !slices.Equal(recs[0].DegradeCauses, served.DegradedTables) {
				t.Errorf("flight record notes = %+v, wire notes = %q", recs, served.DegradedTables)
			}
			for _, note := range served.DegradedTables {
				table, reason, _ := strings.Cut(note, ": ")
				flagged := false
				for _, line := range strings.Split(served.Plan, "\n") {
					if strings.Contains(line, table+" as ") && strings.Contains(line, "[degraded: "+reason+"]") {
						flagged = true
					}
				}
				if !flagged {
					t.Errorf("no scan of %s flagged [degraded: %s]:\n%s", table, reason, served.Plan)
				}
			}
		})
	}
}

// TestServedRowCountsAgree: the served path never boxes a result, so nothing
// on it may count rows off Result.Rows. One statement run embedded and served
// files the same Rows in its flight record — the count the client then
// decodes — and an execute phase exactly when it ran a plan.
func TestServedRowCountsAgree(t *testing.T) {
	cfg := serveConfig(0)
	cfg.JITS.SampleSize = 200
	cfg.FlightRecorderCapacity = -1
	eng, _ := loadedEngine(t, cfg, 0.002)
	_, addr := startServer(t, eng)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// latest returns what the engine's latest statement recorded: its Rows
	// and whether it has an execute phase.
	latest := func() (rows int, executed bool) {
		t.Helper()
		qid := eng.Now()
		rec, ok := eng.Recorder().Get(qid)
		if !ok {
			t.Fatalf("no flight record for q%d", qid)
		}
		for _, p := range rec.Phases {
			executed = executed || p.Phase == flightrec.PhaseExecute
		}
		return rec.Rows, executed
	}
	for _, tc := range []struct {
		sql      string
		executes bool // runs a plan, so it has an execute phase
	}{
		{`SELECT c.id, c.make, c.price FROM car c WHERE c.id BETWEEN 10 AND 400`, true},
		{`SELECT c.make, COUNT(*) AS n FROM car c GROUP BY c.make ORDER BY n DESC`, true},
		{`SELECT DISTINCT o.city FROM owner o ORDER BY o.city LIMIT 7`, true},
		{`SELECT c.id FROM car c WHERE c.id < 0`, true},
		{`EXPLAIN ANALYZE SELECT c.id FROM car c WHERE c.year > 2000`, true},
		{`EXPLAIN SELECT c.id FROM car c WHERE c.year > 2000`, false},
		{`SHOW QUERIES LAST 5`, false},
		{`INSERT INTO owner VALUES (990003, 'n', 'Ottawa', 'CA', 1.0)`, false},
	} {
		direct, err := eng.Exec(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		recDirect, execDirect := latest()
		served, err := conn.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		recServed, execServed := latest()
		if recDirect != len(direct.Rows) || recServed != len(served.Rows) || direct.Len() != len(direct.Rows) {
			t.Errorf("%s: flight records say %d embedded / %d served rows; results have %d / %d (Len %d)",
				tc.sql, recDirect, recServed, len(direct.Rows), len(served.Rows), direct.Len())
		}
		if strings.HasPrefix(tc.sql, "SELECT") && recDirect != recServed {
			t.Errorf("%s: %d rows recorded embedded, %d served", tc.sql, recDirect, recServed)
		}
		if execDirect != tc.executes || execServed != tc.executes {
			t.Errorf("%s: execute phase recorded embedded %v, served %v; executes = %v", tc.sql, execDirect, execServed, tc.executes)
		}
	}
}
