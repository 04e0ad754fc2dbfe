package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// Spans are recorded from the benchmark's own files around each call into a
// module's public entry point, kept in memory, and reduced (or written out)
// when the round ends. The engine's own tracing.SpanObserver is deliberately
// not used: spans inside the program are a later change.

type spanKind uint8

const (
	spStmt spanKind = iota // root: one statement through the staged driver
	spNormalize
	spCacheGet
	spParse
	spBuild
	spPrepare
	spOptimize
	spExecute
	spFeedback
	spCachePut
	spInsert
	spUpdate
	spDelete
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"bench.stmt", "sqlparser.normalize", "plancache.get", "sqlparser.parse", "qgm.build",
	"core.prepare", "optimizer.optimize", "executor.execute", "core.feedback", "plancache.put",
	"engine.dml_insert", "engine.dml_update", "engine.dml_delete",
}

// span is one timed call. Times are nanoseconds since the tracer's base;
// parent is an index into the tracer's spans (-1 for a root); stmt is the
// statement's index in the workload list, shared by all its spans.
type span struct {
	kind   spanKind
	parent int32
	stmt   int32
	start  int64
	end    int64
}

type tracer struct {
	base  time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(kind spanKind, parent int32, stmt int) int32 {
	t.spans = append(t.spans, span{kind: kind, parent: parent, stmt: int32(stmt), start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.base)) }

// spanTotals is the reduction of one round's spans: per kind, how many
// there were, their summed duration and their summed self time (duration
// minus the part covered by child spans).
type spanTotals struct {
	count [numSpanKinds]int
	durNs [numSpanKinds]int64
	selfN [numSpanKinds]int64
	// selectRootNs / selectChildNs cover SELECT statements only: the root
	// spans' duration and the part of it attributed to a module.
	selectRootNs  int64
	selectChildNs int64
}

func (t *tracer) totals(isQuery func(stmt int32) bool) spanTotals {
	var tot spanTotals
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	for i, s := range t.spans {
		tot.count[s.kind]++
		tot.durNs[s.kind] += s.end - s.start
		tot.selfN[s.kind] += self[i]
		if s.kind == spStmt && isQuery(s.stmt) {
			tot.selectRootNs += s.end - s.start
			tot.selectChildNs += s.end - s.start - self[i]
		}
	}
	return tot
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			Name   string `json:"name"`
			Stmt   int32  `json:"stmt"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{spanNames[s.kind], s.stmt, s.parent, s.start, s.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
