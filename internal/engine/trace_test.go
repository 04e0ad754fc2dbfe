package engine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/flightrec"
)

// traceRecords decodes a trace stream, one flight record per line. A line
// that does not decode — torn, interleaved, or not a record — fails the test.
func traceRecords(t *testing.T, trace []byte) ([]flightrec.Record, [][]byte) {
	t.Helper()
	var recs []flightrec.Record
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec flightrec.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("trace line %d does not decode as a record: %v\n%s", len(recs)+1, err, sc.Bytes())
		}
		recs = append(recs, rec)
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs, lines
}

// phaseNames lists a record's phases in order.
func phaseNames(rec flightrec.Record) string {
	var names []string
	for _, p := range rec.Phases {
		names = append(names, p.Phase)
	}
	return strings.Join(names, ",")
}

// TestConcurrentStatementsTraceSafely: many goroutines executing statements
// against one engine share one trace writer. Every line is a whole flight
// record — the recorder writes each in one Write under its mutex — and every
// statement writes exactly one, under its own qid. Run under -race.
func TestConcurrentStatementsTraceSafely(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{JITS: core.DefaultConfig(), Trace: &buf}
	cfg.JITS.SampleSize = 50
	e := seedEngine(t, cfg)

	const goroutines, perG = 8, 10
	queries := []string{
		`SELECT id FROM car WHERE make = 'Toyota'`,
		`SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`,
		`SELECT make, COUNT(*) FROM car WHERE year > 1995 GROUP BY make`,
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := e.Exec(queries[(g+i)%len(queries)]); err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	recs, _ := traceRecords(t, buf.Bytes())
	// Every tick here is a statement (the seed runs through Exec too).
	if int64(len(recs)) != e.Now() {
		t.Fatalf("%d trace lines for %d statements", len(recs), e.Now())
	}
	seen := map[int64]bool{}
	selects := 0
	for _, rec := range recs {
		if seen[rec.QID] {
			t.Fatalf("q%d traced twice", rec.QID)
		}
		seen[rec.QID] = true
		if rec.Kind == "select" {
			selects++
		}
	}
	if selects != goroutines*perG {
		t.Errorf("%d select records, want %d", selects, goroutines*perG)
	}
}

// TestTracerSpansInPipelineOrder: a traced statement's record lists its
// phases in pipeline order — parse, sampling and prepare during compilation,
// execute and feedback after — under the statement's qid.
func TestTracerSpansInPipelineOrder(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{JITS: core.DefaultConfig(), Trace: &buf}
	cfg.JITS.SampleSize = 50
	e := seedEngine(t, cfg)
	buf.Reset()
	if _, err := e.Exec(`SELECT id FROM car WHERE make = 'Toyota'`); err != nil {
		t.Fatal(err)
	}
	recs, _ := traceRecords(t, buf.Bytes())
	if len(recs) != 1 || recs[0].QID != e.Now() {
		t.Fatalf("want one record for q%d, got %+v", e.Now(), recs)
	}
	// jits.sample nests inside jits.prepare and ends before it, so it comes
	// first when collection happens.
	got := strings.Replace(phaseNames(recs[0]), "parse,jits.sample,", "parse,", 1)
	if want := "parse,jits.prepare,optimize,execute,feedback"; got != want {
		t.Errorf("phases = %s, want %s (jits.sample optional after parse)", phaseNames(recs[0]), want)
	}
}

// TestTraceLinesAreRingRecords: the trace writer and the ring are two sinks
// of one record. Over a stream that covers sampling (jits.sample),
// hair-trigger re-optimization (reopt.plan), an EXPLAIN and a DML
// statement, each trace line is, byte for byte, the record the ring holds
// for that qid; every pipeline phase occurs somewhere in the stream; and an
// engine without a writer records the same phases.
func TestTraceLinesAreRingRecords(t *testing.T) {
	stream := []string{
		`SELECT id FROM car WHERE make = 'Toyota' AND year > 1995`,
		`SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa' AND c.make = 'Honda'`,
		`EXPLAIN SELECT id FROM owner WHERE city = 'Boston'`,
		`UPDATE car SET year = 2001 WHERE make = 'BMW'`,
		`SELECT make, COUNT(*) FROM car WHERE year > 1995 GROUP BY make`,
		`SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Toronto' AND c.model = 'Civic'`,
	}
	run := func(trace *bytes.Buffer) (*Engine, int64) {
		cfg := Config{JITS: core.DefaultConfig(), FlightRecorderCapacity: -1}
		cfg.JITS.SampleSize = 50
		if trace != nil {
			cfg.Trace = trace
		}
		e := seedEngine(t, cfg)
		e.SetReopt(1.01, 2)
		first := e.Now() + 1
		if trace != nil {
			trace.Reset()
		}
		for _, sql := range stream {
			mustExec(t, e, sql)
		}
		return e, first
	}
	var buf bytes.Buffer
	traced, first := run(&buf)
	untraced, _ := run(nil)
	recs, lines := traceRecords(t, buf.Bytes())
	if len(recs) != len(stream) {
		t.Fatalf("%d trace lines for %d statements", len(recs), len(stream))
	}
	seen := map[string]int{}
	for i, rec := range recs {
		if want := first + int64(i); rec.QID != want {
			t.Fatalf("line %d is q%d, want q%d", i+1, rec.QID, want)
		}
		ring, ok := traced.Recorder().Get(rec.QID)
		if !ok {
			t.Fatalf("q%d: no ring record", rec.QID)
		}
		if enc, err := json.Marshal(ring); err != nil || !bytes.Equal(enc, lines[i]) {
			t.Errorf("q%d %q: trace line differs from the ring record (%v)\ntrace: %s\nring:  %s", rec.QID, rec.SQL, err, lines[i], enc)
		}
		other, _ := untraced.Recorder().Get(rec.QID)
		if alone, got := phaseNames(other), phaseNames(rec); alone != got {
			t.Errorf("q%d %q: record phases %q without a writer, %q with one", rec.QID, rec.SQL, alone, got)
		}
		for _, p := range rec.Phases {
			seen[p.Phase]++
			if p.Wall < 0 {
				t.Errorf("q%d: phase %s has negative wall %v", rec.QID, p.Phase, p.Wall)
			}
		}
	}
	t.Logf("phases recorded over the stream: %v", seen)
	for _, phase := range []string{flightrec.PhaseParse, flightrec.PhaseSample, flightrec.PhasePrepare, flightrec.PhaseOptimize,
		flightrec.PhaseExecute, flightrec.PhaseReoptPlan, flightrec.PhaseFeedback} {
		if seen[phase] == 0 {
			t.Errorf("no statement recorded phase %s: %v", phase, seen)
		}
	}
}

// TestTraceWithoutRing: a trace writer records on its own. With recorder
// capacity 0 every statement still writes its one line, while SHOW QUERIES —
// a reader of the ring only — reports the recorder off. A statement that
// fails to parse takes no tick and leaves no line.
func TestTraceWithoutRing(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{JITS: core.DefaultConfig(), Trace: &buf}
	cfg.JITS.SampleSize = 50
	e := seedEngine(t, cfg)
	mustExec(t, e, `SELECT id FROM car WHERE make = 'Honda'`)
	before, lines := e.Now(), bytes.Count(buf.Bytes(), []byte("\n"))
	if _, err := e.Exec(`SELEC id FROM car`); err == nil {
		t.Fatal("a misspelt SELECT parsed")
	}
	if e.Now() != before || bytes.Count(buf.Bytes(), []byte("\n")) != lines {
		t.Fatal("a statement that failed to parse ticked or wrote a trace line")
	}
	res := mustExec(t, e, `SHOW QUERIES`)
	if len(res.Rows) != 0 || e.Recorder().Enabled() || len(e.Recorder().Last(0)) != 0 {
		t.Fatalf("SHOW QUERIES returned %d rows with no ring (enabled=%v len=%d)", len(res.Rows), e.Recorder().Enabled(), len(e.Recorder().Last(0)))
	}
	recs, _ := traceRecords(t, buf.Bytes())
	if int64(len(recs)) != e.Now() {
		t.Fatalf("%d trace lines for %d statements", len(recs), e.Now())
	}
	if last := recs[len(recs)-1]; last.Kind != "show_queries" || last.QID != e.Now() {
		t.Fatalf("last line is q%d %s, want the SHOW QUERIES", last.QID, last.Kind)
	}
}
