package engine

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/flightrec"
)

// traceLineRe matches every line format the engine emits: free-form
// decision lines and structured phase spans, all prefixed with the
// statement's logical timestamp.
var traceLineRe = regexp.MustCompile(`^q\d+ (span|jits|feedback|plan) `)

// TestConcurrentStatementsTraceSafely is the regression test for the
// unsynchronized Config.Trace writes: the engine used to fmt.Fprintf
// directly to the shared writer from every statement, which was a data race
// (and interleaved partial lines) when statements ran concurrently. All
// trace output now funnels through one mutex-guarded tracer, so this test —
// many goroutines executing traced statements against one engine with one
// shared buffer — must pass under -race and leave only whole, well-formed
// lines behind.
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

	out := buf.String()
	if out == "" {
		t.Fatal("no trace output produced")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for i, line := range lines {
		if !traceLineRe.MatchString(line) {
			t.Fatalf("line %d is torn or malformed: %q", i, line)
		}
	}
	// Every statement emits exactly one summary line; none may be lost.
	summaries := 0
	for _, line := range lines {
		if strings.Contains(line, " plan rows=") {
			summaries++
		}
	}
	if summaries != goroutines*perG {
		t.Errorf("plan summary lines = %d, want %d", summaries, goroutines*perG)
	}
}

// TestTracerSpansInPipelineOrder checks that a single traced statement
// emits its phase spans in pipeline order — prepare and sample during
// compilation, execute and feedback after — with the statement's qid on
// every span.
func TestTracerSpansInPipelineOrder(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{JITS: core.DefaultConfig(), Trace: &buf}
	cfg.JITS.SampleSize = 50
	e := seedEngine(t, cfg)
	if _, err := e.Exec(`SELECT id FROM car WHERE make = 'Toyota'`); err != nil {
		t.Fatal(err)
	}
	qid := e.Now()
	var phases []string
	for _, line := range strings.Split(buf.String(), "\n") {
		prefix := fmt.Sprintf("q%d span ", qid)
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		phases = append(phases, strings.Fields(rest)[0])
	}
	want := []string{"jits.prepare", "optimize", "execute", "feedback"}
	got := strings.Join(phases, ",")
	// jits.sample nests inside jits.prepare and ends before it, so it
	// appears first in emission order when collection happens.
	got = strings.TrimPrefix(got, "jits.sample,")
	if got != strings.Join(want, ",") {
		t.Errorf("span order = %v, want sample?,%v\ntrace:\n%s", phases, want, buf.String())
	}
}

// TestRecordPhasesMatchTraceSpans: a statement writes its phase timings into
// its own flight record, so the record lists exactly the phases the trace
// prints for that qid, in the same order, and lists the same phases when no
// trace is written at all. The stream covers sampling (jits.sample),
// hair-trigger re-optimization (reopt.plan), statistics migration
// (archive.merge), an EXPLAIN and a DML statement.
func TestRecordPhasesMatchTraceSpans(t *testing.T) {
	stream := []string{
		`SELECT id FROM car WHERE make = 'Toyota' AND year > 1995`,
		`SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa' AND c.make = 'Honda'`,
		`EXPLAIN SELECT id FROM owner WHERE city = 'Boston'`,
		`UPDATE car SET year = 2001 WHERE make = 'BMW'`,
		`SELECT make, COUNT(*) FROM car WHERE year > 1995 GROUP BY make`,
		`SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Toronto' AND c.model = 'Civic'`,
	}
	run := func(trace *bytes.Buffer) (*Engine, int64) {
		cfg := Config{JITS: core.DefaultConfig(), FlightRecorderCapacity: -1, MigrateEvery: 2,
			Reopt: ReoptConfig{Enabled: true, QErrorThreshold: 1.01}}
		cfg.JITS.SampleSize = 50
		if trace != nil {
			cfg.Trace = trace
		}
		e := seedEngine(t, cfg)
		first := e.Now() + 1
		for _, sql := range stream {
			mustExec(t, e, sql)
		}
		return e, first
	}
	phaseNames := func(rec flightrec.Record) []string {
		var names []string
		for _, p := range rec.Phases {
			names = append(names, p.Phase)
		}
		return names
	}
	var buf bytes.Buffer
	traced, first := run(&buf)
	untraced, _ := run(nil)
	spans := map[int64][]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		var qid int64
		var phase string
		if n, _ := fmt.Sscanf(line, "q%d span %s", &qid, &phase); n == 2 {
			spans[qid] = append(spans[qid], phase)
		}
	}
	seen := map[string]int{}
	for qid := first; qid <= traced.Now(); qid++ {
		rec, ok := traced.Recorder().Get(qid)
		if !ok {
			t.Fatalf("q%d: no flight record", qid)
		}
		got := strings.Join(phaseNames(rec), ",")
		if want := strings.Join(spans[qid], ","); got != want {
			t.Errorf("q%d %q: record phases %q, trace spans %q", qid, rec.SQL, got, want)
		}
		other, _ := untraced.Recorder().Get(qid)
		if alone := strings.Join(phaseNames(other), ","); alone != got {
			t.Errorf("q%d %q: record phases %q without a trace, %q with one", qid, rec.SQL, alone, got)
		}
		for _, p := range rec.Phases {
			seen[p.Phase]++
			if p.Wall < 0 {
				t.Errorf("q%d: phase %s has negative wall %v", qid, p.Phase, p.Wall)
			}
		}
	}
	t.Logf("phases recorded over the stream: %v", seen)
	for _, phase := range []string{"jits.sample", "jits.prepare", "optimize", "execute", "reopt.plan", "feedback", "archive.merge"} {
		if seen[phase] == 0 {
			t.Errorf("no statement recorded phase %s: %v", phase, seen)
		}
	}
}
