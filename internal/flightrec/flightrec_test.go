package flightrec

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestQError(t *testing.T) {
	cases := []struct {
		est, act, want float64
	}{
		{100, 100, 1},
		{100, 10, 10},
		{10, 100, 10},   // symmetric
		{0.5, 100, 100}, // sub-row estimate floored to 1
		{100, 0, 100},
		{0, 0, 1},   // both sides floored at one row
		{0.4, 0, 1}, // a sub-row estimate of an empty result is exact
		{0.4, 0.9, 1},
		{-3, 10, 10}, // negative clamps to the floor
	}
	for _, c := range cases {
		if got := QError(c.est, c.act); got != c.want {
			t.Errorf("QError(%v, %v) = %v, want %v", c.est, c.act, got, c.want)
		}
	}
	// The property metrics.QErrorBuckets documents: at least 1 for any finite
	// pair, symmetric, and exactly 1 on the diagonal.
	grid := []float64{-1e9, -3, -0.5, 0, 1e-300, 0.4, 1, 1.5, 7, 1e6, 1e300, math.MaxFloat64}
	for _, x := range grid {
		if got := QError(x, x); got != 1 {
			t.Errorf("QError(%v, %v) = %v, want 1", x, x, got)
		}
		for _, y := range grid {
			q := QError(x, y)
			if !(q >= 1) || q != QError(y, x) {
				t.Errorf("QError(%v, %v) = %v, reversed %v: want symmetric and >= 1", x, y, q, QError(y, x))
			}
		}
	}
}

func TestDisabledRecorderRecordsNothing(t *testing.T) {
	r := New(0, nil)
	if r.Enabled() || r.Capacity() != 0 {
		t.Fatal("a zero-capacity recorder should be disabled")
	}
	if rec := r.Begin(1, "SELECT 1"); rec != nil {
		t.Fatalf("Begin on a disabled recorder returned %+v, want nil", rec)
	}
	r.Commit(nil)
	r.Commit(&Record{QID: 2}) // a record from elsewhere is not kept either
	if len(r.Last(0)) != 0 || r.Total() != 0 || len(r.PostMortems()) != 0 {
		t.Fatalf("disabled recorder retained state: len=%d total=%d", len(r.Last(0)), r.Total())
	}
	if !New(-1, nil).Enabled() || New(-1, nil).Capacity() != DefaultCapacity {
		t.Fatal("a negative capacity should select an enabled DefaultCapacity ring")
	}
	var nilRec *Recorder
	if nilRec.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	nilRec.Commit(&Record{QID: 1})
	if got := nilRec.Last(5); got != nil {
		t.Fatalf("nil recorder Last = %v, want nil", got)
	}
}

func TestRingWrapKeepsNewestOldestFirst(t *testing.T) {
	r := New(4, nil)
	for qid := int64(1); qid <= 10; qid++ {
		rec := r.Begin(qid, fmt.Sprintf("SELECT %d", qid))
		r.Commit(rec)
	}
	if len(r.Last(0)) != 4 {
		t.Fatalf("%d live records, want 4", len(r.Last(0)))
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	got := r.Last(0)
	if len(got) != 4 {
		t.Fatalf("Last(0) returned %d records, want 4", len(got))
	}
	for i, want := range []int64{7, 8, 9, 10} {
		if got[i].QID != want {
			t.Errorf("Last(0)[%d].QID = %d, want %d (oldest first)", i, got[i].QID, want)
		}
	}
	got = r.Last(2)
	if len(got) != 2 || got[0].QID != 9 || got[1].QID != 10 {
		t.Fatalf("Last(2) = %+v, want qids [9 10]", got)
	}
	// Asking for more than is live returns what is live.
	if got = r.Last(99); len(got) != 4 {
		t.Fatalf("Last(99) returned %d records, want 4", len(got))
	}
}

func TestGetFindsLiveAndMissesWrapped(t *testing.T) {
	r := New(4, nil)
	for qid := int64(1); qid <= 6; qid++ {
		r.Commit(r.Begin(qid, "SELECT 1"))
	}
	if _, ok := r.Get(2); ok {
		t.Fatal("Get(2) found a record the ring wrapped past")
	}
	rec, ok := r.Get(5)
	if !ok || rec.QID != 5 {
		t.Fatalf("Get(5) = %+v, %v; want the live record", rec, ok)
	}
}

func TestPostMortemCapture(t *testing.T) {
	r := New(4, nil)
	ok1 := r.Begin(1, "SELECT 1")
	r.Commit(ok1)
	bad := r.Begin(2, "SELECT broken")
	bad.Err = "executor: scan failed"
	r.Commit(bad)
	deg := r.Begin(3, "SELECT degraded")
	deg.Degraded = true
	deg.DegradeCauses = []string{"t: cost budget exhausted"}
	r.Commit(deg)

	pms := r.PostMortems()
	if len(pms) != 2 {
		t.Fatalf("PostMortems = %d records, want 2 (error + degraded)", len(pms))
	}
	if pms[0].QID != 2 || pms[1].QID != 3 {
		t.Fatalf("post-mortem qids = [%d %d], want [2 3]", pms[0].QID, pms[1].QID)
	}
	// Post-mortems survive the main ring wrapping past them.
	for qid := int64(10); qid < 20; qid++ {
		r.Commit(r.Begin(qid, "SELECT 1"))
	}
	if _, live := r.Get(2); live {
		t.Fatal("expected qid 2 to have wrapped out of the main ring")
	}
	if pms = r.PostMortems(); len(pms) != 2 || pms[0].QID != 2 {
		t.Fatalf("post-mortems lost after ring wrap: %+v", pms)
	}
}

func TestPostMortemRingBounded(t *testing.T) {
	r := New(4, nil)
	n := DefaultPostMortemCapacity + 5
	for qid := int64(1); qid <= int64(n); qid++ {
		rec := r.Begin(qid, "SELECT broken")
		rec.Err = "boom"
		r.Commit(rec)
	}
	pms := r.PostMortems()
	if len(pms) != DefaultPostMortemCapacity {
		t.Fatalf("post-mortem buffer holds %d, want bounded at %d", len(pms), DefaultPostMortemCapacity)
	}
	if pms[0].QID != 6 || pms[len(pms)-1].QID != int64(n) {
		t.Fatalf("post-mortem window [%d..%d], want [6..%d]", pms[0].QID, pms[len(pms)-1].QID, n)
	}
}

func TestReset(t *testing.T) {
	r := New(4, nil)
	bad := r.Begin(1, "SELECT broken")
	bad.Err = "boom"
	r.Commit(bad)
	pending := r.Begin(2, "SELECT pending")
	r.Reset()
	if len(r.Last(0)) != 0 || r.Total() != 0 || len(r.PostMortems()) != 0 {
		t.Fatal("Reset left state behind")
	}
	if !r.Enabled() {
		t.Fatal("Reset must preserve the enabled flag")
	}
	r.Commit(pending) // committing a pre-reset record is harmless
	if len(r.Last(0)) != 1 {
		t.Fatalf("%d live records after a post-reset commit, want 1", len(r.Last(0)))
	}
}

// TestCommitWritesRecordAsJSONLine: with a trace writer, Commit writes the
// record it stores as one newline-terminated JSON line, the encoding
// /debug/queries serves; a record encoding/json refuses still leaves a line.
func TestCommitWritesRecordAsJSONLine(t *testing.T) {
	var buf bytes.Buffer
	r := New(4, &buf)
	rec := r.Begin(7, "SELECT 1")
	rec.Kind = "select"
	rec.AddPhase(PhaseParse, 3*time.Microsecond)
	rec.Tables = []TableSample{{Table: "car", Collected: true, S1: 0.75, S2: 1, Draw: time.Millisecond}}
	rec.Feedback = []Feedback{{Stat: "car(make)", EstSel: 0.1, ActualSel: 0.2, ErrorFactor: 0.5, StatList: []string{"car(make)"}}}
	r.Commit(rec)
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want)+"\n" {
		t.Fatalf("trace = %q, want %q", got, string(want)+"\n")
	}
	var back Record
	if err := json.Unmarshal(want, &back); err != nil || back.QID != 7 || back.Tables[0].S1 != 0.75 ||
		back.Tables[0].Draw != time.Millisecond || back.Feedback[0].ErrorFactor != 0.5 || back.Phases[0].Phase != PhaseParse {
		t.Fatalf("decoded %+v (%v), want the committed record", back, err)
	}

	buf.Reset()
	bad := r.Begin(8, "SELECT 2")
	bad.WorstQError = math.Inf(1)
	r.Commit(bad)
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil || back.QID != 8 || !strings.HasPrefix(back.Err, "flightrec: ") {
		t.Fatalf("unencodable record wrote %q (%v), want its qid and the reason", buf.String(), err)
	}
	if len(r.Last(0)) != 2 {
		t.Fatalf("%d live records, want 2: the writer does not replace the ring", len(r.Last(0)))
	}
}

// TestCommitsAppendOneLineEach: successive commits append their records to
// the writer in commit order, each as exactly one newline-terminated line.
func TestCommitsAppendOneLineEach(t *testing.T) {
	var buf bytes.Buffer
	r := New(4, &buf)
	var want strings.Builder
	for qid := int64(1); qid <= 2; qid++ {
		rec := r.Begin(qid, fmt.Sprintf("SELECT %d", qid))
		rec.AddPhase(PhaseExecute, time.Duration(qid)*time.Microsecond)
		r.Commit(rec)
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
	}
	if got := buf.String(); got != want.String() {
		t.Fatalf("trace = %q, want %q", got, want.String())
	}
}

// TestWriterOnlyRecorderKeepsNoRing: a recorder with a trace writer and no
// ring records — Begin returns a record and Commit writes it — but keeps
// nothing for the ring's readers, which report it off. Without either sink,
// and on a nil recorder, every probe is inert.
func TestWriterOnlyRecorderKeepsNoRing(t *testing.T) {
	var buf bytes.Buffer
	r := New(0, &buf)
	if !r.Recording() || r.Enabled() || r.Capacity() != 0 {
		t.Fatalf("writer-only recorder: recording=%v enabled=%v capacity=%d", r.Recording(), r.Enabled(), r.Capacity())
	}
	for qid := int64(1); qid <= 3; qid++ {
		rec := r.Begin(qid, "SELECT 1")
		if rec == nil {
			t.Fatal("Begin with a writer returned nil")
		}
		rec.Err = "boom" // a post-mortem candidate, with no ring to keep it in
		r.Commit(rec)
	}
	if n := strings.Count(buf.String(), "\n"); n != 3 {
		t.Fatalf("%d lines written, want 3", n)
	}
	if len(r.Last(0)) != 0 || r.Total() != 0 || len(r.PostMortems()) != 0 {
		t.Fatalf("writer-only recorder kept state: len=%d total=%d", len(r.Last(0)), r.Total())
	}
	if _, ok := r.Get(2); ok {
		t.Fatal("Get found a record with no ring")
	}
	if New(0, nil).Recording() || (*Recorder)(nil).Recording() {
		t.Fatal("a recorder without sinks reports recording")
	}
}

// TestConcurrentWritesAreLineAtomic drives many goroutines committing
// records through one recorder into one bytes.Buffer. Run under -race; every
// line must decode as a whole record, one per commit.
func TestConcurrentWritesAreLineAtomic(t *testing.T) {
	var buf bytes.Buffer
	r := New(0, &buf)
	var wg sync.WaitGroup
	const workers, commits = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				rec := r.Begin(int64(w*commits+i+1), fmt.Sprintf("SELECT %d FROM worker_%d", i, w))
				rec.AddPhase(PhaseExecute, time.Duration(i))
				r.Commit(rec)
			}
		}(w)
	}
	wg.Wait()
	seen := map[int64]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("torn or malformed line %q: %v", sc.Text(), err)
		}
		seen[rec.QID] = true
	}
	if len(seen) != workers*commits {
		t.Fatalf("%d distinct records written, want %d", len(seen), workers*commits)
	}
}

// TestConcurrentReadersAndWriters hammers the recorder from writer and
// reader goroutines; correctness is checked by the race detector plus the
// invariant that every read snapshot is internally consistent.
func TestConcurrentReadersAndWriters(t *testing.T) {
	r := New(16, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers commit from disjoint qid spaces, each filling in its own record
	// the way a statement does; Last sorts by qid, so every snapshot is
	// strictly oldest-first whatever the commit order.
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := int64(w)<<40 + 1; ; id++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := r.Begin(id, "SELECT 1")
				rec.AddPhase("execute", time.Microsecond)
				if id%7 == 0 {
					rec.Err = "injected"
				}
				r.Commit(rec)
			}
		}()
	}
	for rd := 0; rd < 4; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				recs := r.Last(8)
				for j := 1; j < len(recs); j++ {
					if recs[j].QID <= recs[j-1].QID {
						t.Errorf("snapshot not oldest-first: %d then %d", recs[j-1].QID, recs[j].QID)
						return
					}
				}
				r.PostMortems()
				r.Total()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// BenchmarkDisabledRecorderBegin proves the path with neither ring nor writer
// is two checks with zero allocations — the telemetry-free-when-disabled
// contract.
func BenchmarkDisabledRecorderBegin(b *testing.B) {
	r := New(0, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rec := r.Begin(int64(i), "SELECT 1"); rec != nil {
			b.Fatal("recorder unexpectedly enabled")
		}
	}
}

// BenchmarkEnabledCommit is the O(1) ring-append cost when recording.
func BenchmarkEnabledCommit(b *testing.B) {
	r := New(DefaultCapacity, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Commit(r.Begin(int64(i+1), "SELECT 1"))
	}
}
