package debugserver_test

import (
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"sort"
	"strings"
	"testing"

	"repro/internal/debugserver"
	"repro/internal/engine"
	"repro/internal/metrics"
)

func startedServer(t *testing.T, eng *engine.Engine) (*debugserver.Server, string) {
	t.Helper()
	srv := debugserver.New(eng)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, "http://" + addr
}

func testEngine(t *testing.T) *engine.Engine {
	t.Helper()
	cfg := engine.Config{FlightRecorderCapacity: -1}
	cfg.JITS.Enabled = true
	cfg.JITS.SMax = 0.5
	cfg.JITS.SampleSize = 100
	e := engine.New(cfg)
	stmts := []string{
		`CREATE TABLE t (id INT, grp STRING)`,
		`INSERT INTO t VALUES (1, 'a'), (2, 'a'), (3, 'b'), (4, 'b'), (5, 'c')`,
		`SELECT id FROM t WHERE grp = 'a'`,
	}
	for _, sql := range stmts {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func get(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// TestMetricsEndpointServesExposition: /metrics renders the attached
// engine's own counts — the test engine's one SELECT, with nothing switched
// on first — and, once a server's series are attached, those too.
func TestMetricsEndpointServesExposition(t *testing.T) {
	e := testEngine(t)
	srv, base := startedServer(t, e)
	code, ctype, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("content type %q", ctype)
	}
	for _, want := range []string{"# TYPE engine_statements_total counter", "# HELP ", `engine_statements_total{kind="select"} 1` + "\n"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(string(body), "server_") {
		t.Fatalf("server series with no server attached:\n%s", body)
	}
	srv.SetMetricsSource(func() metrics.Set {
		var set metrics.Set
		set.Gauge("server_sessions_active", "Currently open client sessions.", 3)
		return set
	})
	_, _, body = get(t, base+"/metrics")
	if !strings.Contains(string(body), "\nserver_sessions_active 3\n") || !strings.Contains(string(body), "engine_statements_total") {
		t.Fatalf("exposition with a server attached:\n%s", body)
	}
}

func TestQueriesEndpoint(t *testing.T) {
	e := testEngine(t)
	_, base := startedServer(t, e)
	code, ctype, body := get(t, base+"/debug/queries")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("status %d, content type %q", code, ctype)
	}
	var got struct {
		Enabled  bool `json:"enabled"`
		Capacity int  `json:"capacity"`
		Total    int  `json:"total"`
		Records  []struct {
			QID  int64  `json:"qid"`
			SQL  string `json:"sql"`
			Kind string `json:"kind"`
		} `json:"records"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if !got.Enabled || got.Total != 3 || len(got.Records) != 3 {
		t.Fatalf("enabled=%v total=%d records=%d, want enabled, 3, 3", got.Enabled, got.Total, len(got.Records))
	}
	if got.Records[2].Kind != "select" || got.Records[2].SQL == "" || got.Records[2].QID == 0 {
		t.Fatalf("newest record %+v, want the SELECT", got.Records[2])
	}
	// ?last= caps the slice; a bad value is a 400.
	code, _, body = get(t, base+"/debug/queries?last=1")
	if code != http.StatusOK {
		t.Fatalf("?last=1 status %d", code)
	}
	if err := json.Unmarshal(body, &got); err != nil || len(got.Records) != 1 {
		t.Fatalf("?last=1 returned %d records (err %v)", len(got.Records), err)
	}
	if code, _, _ = get(t, base+"/debug/queries?last=bogus"); code != http.StatusBadRequest {
		t.Fatalf("?last=bogus status %d, want 400", code)
	}
}

func TestArchiveEndpoint(t *testing.T) {
	e := testEngine(t)
	_, base := startedServer(t, e)
	code, _, body := get(t, base+"/debug/archive")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var got struct {
		Histograms []struct {
			Key     string `json:"key"`
			Table   string `json:"table"`
			Buckets int    `json:"buckets"`
		} `json:"histograms"`
		Buckets     int `json:"buckets"`
		MemoEntries int `json:"memo_entries"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
}

func TestHealthEndpointTransitions(t *testing.T) {
	e := testEngine(t)
	_, base := startedServer(t, e)
	var got struct {
		Status      string           `json:"status"`
		Degradation map[string]int64 `json:"degradation"`
	}
	_, ctype, body := get(t, base+"/debug/health")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("content type %q", ctype)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "ok" {
		t.Fatalf("status %q, want ok", got.Status)
	}
	for _, key := range []string{"cancelled", "budget_exhausted", "sampling_error", "panic"} {
		if _, present := got.Degradation[key]; !present {
			t.Fatalf("degradation counter %q missing: %s", key, body)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, body = get(t, base+"/debug/health")
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "closed" {
		t.Fatalf("status after Close %q, want closed", got.Status)
	}
}

// TestHealthGovernorSection: the health payload carries the governor
// snapshot — the live reservations and the bytes they hold, nothing else —
// and a statement's held memory never fails the probe.
func TestHealthGovernorSection(t *testing.T) {
	e := engine.New(engine.Config{})
	if _, err := e.Exec(`CREATE TABLE t (id INT)`); err != nil {
		t.Fatal(err)
	}
	_, base := startedServer(t, e)
	health := func() map[string]int64 {
		t.Helper()
		var got struct {
			Governor map[string]int64 `json:"governor"`
		}
		code, _, body := get(t, base+"/debug/health")
		if code != http.StatusOK {
			t.Fatalf("status %d, want 200: %s", code, body)
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("invalid JSON: %v\n%s", err, body)
		}
		return got.Governor
	}

	if got := health(); !maps.Equal(got, map[string]int64{"in_flight": 0, "global_mem_used_bytes": 0}) {
		t.Fatalf("idle governor section %v", got)
	}
	r := e.Governor().NewReservation()
	r.Grow(4096)
	if got := health(); !maps.Equal(got, map[string]int64{"in_flight": 1, "global_mem_used_bytes": 4096}) {
		t.Fatalf("governor section with one reservation of 4096 bytes: %v", got)
	}
	r.Release()
	if got := health(); !maps.Equal(got, map[string]int64{"in_flight": 0, "global_mem_used_bytes": 0}) {
		t.Fatalf("governor section after Release: %v", got)
	}
}

func TestNoEngineAttached(t *testing.T) {
	srv, base := startedServer(t, nil)
	for _, path := range []string{"/debug/archive", "/debug/queries"} {
		code, _, _ := get(t, base+path)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s with no engine: status %d, want 503", path, code)
		}
	}
	_, _, body := get(t, base+"/debug/health")
	if !strings.Contains(string(body), "no-engine") {
		t.Fatalf("health with no engine = %s", body)
	}
	// Attaching an engine brings the endpoints up without a restart.
	srv.SetEngine(testEngine(t))
	if code, _, _ := get(t, base+"/debug/queries"); code != http.StatusOK {
		t.Fatalf("after SetEngine: status %d", code)
	}
}

func TestPprofIndex(t *testing.T) {
	_, base := startedServer(t, testEngine(t))
	code, _, body := get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: status %d body %.80s", code, body)
	}
}

// topLevelKeys decodes a JSON object and returns its sorted top-level keys.
func topLevelKeys(t *testing.T, body []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("invalid JSON object: %v\n%s", err, body)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestDebugEndpointGoldenSchemas pins the top-level JSON shape of the debug
// endpoints. Dashboards and scripts key on these names; renaming or dropping
// a field is a breaking change and must show up here.
func TestDebugEndpointGoldenSchemas(t *testing.T) {
	e := testEngine(t)
	_, base := startedServer(t, e)
	golden := []struct {
		path string
		keys []string
	}{
		{"/debug/accuracy", []string{"aging", "drifted", "fresh", "stats", "tracked"}},
		{"/debug/archive", []string{"buckets", "histograms", "memo_entries"}},
		{"/debug/queries", []string{"capacity", "enabled", "postmortems", "records", "total"}},
	}
	for _, g := range golden {
		code, ctype, body := get(t, base+g.path)
		if code != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
			t.Fatalf("%s: status %d, content type %q", g.path, code, ctype)
		}
		if got := topLevelKeys(t, body); strings.Join(got, ",") != strings.Join(g.keys, ",") {
			t.Errorf("%s keys = %v, want %v", g.path, got, g.keys)
		}
	}
}

// TestAccuracyEndpoint: the feedback store's endpoint reports counts and
// per-statistic entries with the documented field names, and ?table= filters.
func TestAccuracyEndpoint(t *testing.T) {
	e := testEngine(t)
	_, base := startedServer(t, e)
	code, _, body := get(t, base+"/debug/accuracy")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var got struct {
		Tracked int `json:"tracked"`
		Drifted int `json:"drifted"`
		Stats   []struct {
			Key          string    `json:"key"`
			Table        string    `json:"table"`
			State        string    `json:"state"`
			Observations uint64    `json:"observations"`
			EWMAQError   float64   `json:"ewma_qerror"`
			CUSUM        float64   `json:"cusum"`
			ChurnRows    int64     `json:"churn_rows"`
			Hist         []uint64  `json:"hist"`
			HistBounds   []float64 `json:"hist_bounds"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if got.Tracked == 0 || len(got.Stats) != got.Tracked {
		t.Fatalf("tracked=%d stats=%d", got.Tracked, len(got.Stats))
	}
	for _, s := range got.Stats {
		if s.Table != "t" || !strings.HasPrefix(s.Key, "t(") {
			t.Errorf("unexpected stat %q for table %q", s.Key, s.Table)
		}
		if s.State != "fresh" && s.State != "aging" && s.State != "drifted" {
			t.Errorf("%s: state %q", s.Key, s.State)
		}
		if s.Observations == 0 || s.EWMAQError < 1 {
			t.Errorf("%s: observations=%d ewma_qerror=%v", s.Key, s.Observations, s.EWMAQError)
		}
		if len(s.Hist) != len(s.HistBounds)+1 {
			t.Errorf("%s: hist %d counts for %d bounds", s.Key, len(s.Hist), len(s.HistBounds))
		}
	}
	// ?table= filters; a table nobody queried yields an empty stats slice.
	code, _, body = get(t, base+"/debug/accuracy?table=nope")
	if code != http.StatusOK {
		t.Fatalf("?table=nope status %d", code)
	}
	if err := json.Unmarshal(body, &got); err != nil || len(got.Stats) != 0 {
		t.Fatalf("?table=nope returned %d stats (err %v)", len(got.Stats), err)
	}
}

// TestHealthDriftSection: /debug/health carries the drift counts so a
// probe can alert on drifted statistics without scraping the full snapshot.
func TestHealthDriftSection(t *testing.T) {
	e := testEngine(t)
	_, base := startedServer(t, e)
	code, _, body := get(t, base+"/debug/health")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var got struct {
		Drift map[string]int `json:"drift"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	d := got.Drift
	if len(d) != 4 || d["tracked"] == 0 || d["fresh"]+d["aging"]+d["drifted"] != d["tracked"] {
		t.Fatalf("drift section = %v, want tracked, fresh, aging and drifted", d)
	}
	if d["drifted"] != 0 {
		t.Fatalf("healthy engine reports %d drifted stats", d["drifted"])
	}
}
