GO ?= go

.PHONY: all build test race vet bench bench-test bench-pairs bench-smoke fuzz chaos check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector. The concurrency proofs only prove
# anything here: the morsel runner (shared meters, parallel scans, joins,
# aggregation, sampling), concurrent DML, the governor (admission, breaker,
# memory budget), the SQL service and plan cache, network chaos with client
# retries, and the re-optimization differential. CI runs this target once.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench/ (the repo benchmark, BENCHMARK.json) is its own module, so the root
# build and test targets cannot see an engine change that breaks it:
# bench/staged.go mirrors the engine's SELECT pipeline stage by stage against
# exported signatures, and TestStagedMatchesEngine holds that mirror to the
# engine's digests, sampling decisions, cache hits, logical clock and
# simulated seconds (~12s). Part of `make check`; CI runs it there.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Interleaved parent/change pairs of the repo benchmark, the protocol behind
# every performance claim: REF (a git ref, extracted into a temporary tree)
# against the working tree, N pairs of BENCHMARK.json's run length on one
# WORKLOAD and SEED, which side runs first flipping every pair; prints both
# medians with quartiles, their ratio and the pairs won per end-to-end
# metric, and every run's value. An unknown workload or ref exits non-zero
# before anything runs. About N × 1 min.
#
#   make bench-pairs REF=HEAD~1 WORKLOAD=paper_mixed N=10
N ?= 10
SEED ?= 1
bench-pairs:
	$(GO) run ./cmd/benchpairs -ref '$(REF)' -workload '$(WORKLOAD)' -n '$(N)' -seed '$(SEED)'

# Telemetry must be free when nobody is looking: the disabled-path
# benchmarks for the metrics registry, the phase tracer and the flight
# recorder next to the bare atomic-load baseline, plus the end-to-end
# statement benchmark with the recorder on/off, all with -benchmem so an
# unexpected allocation on a disabled path fails review at a glance. Then
# the result-frame codec (encode, decode, whole-frame round trip at 50, 500
# and 5000 rows): its allocations per frame must not grow with the rows;
# result/… is what the server runs, an unboxed scan result of an int-heavy
# and a string-heavy shape written from its columns, next to boxing the same
# result and encoding the rows.
# Last, the index layer: one image advance per kind of DML at 43k and 430k
# rows (a catch-up allocates nothing once warm; only first-build and the
# 40 % rewrite sort everything; the delta-* pairs price merge against sort
# around rebuildLimit, and run at 10k rows too under `-bench IndexAdvance`)
# and a point probe with a native and with a fallback bound. Then JITS collection, one table's worth per layer: the
# columnar draw (2000 of 43k rows, 8 columns), bitmap group evaluation (7
# groups over 3 predicates), the NDV counter per column kind (0 allocs/op
# once warm), and one archive merge at the shape measured on collect_all
# (164 cells, 35 constraints, 20 of them re-observed boxes) and at the budget
# ceiling (4096 cells, 48 constraints, 16 re-observed). Last, the
# executor's own row: the six paper templates at scale 0.01 under the join
# methods the optimizer picks among (bytes and allocations per execution are
# what late materialization is held to; forced nested loops take 0.4 s an
# execution and run under `go test -bench ExecuteTemplates` by hand), and the
# two exits of one 5000-row scan: rows (boxed, Execute) and columns (Run). Then the
# write path through Engine.Exec on the 43k-row table, a snapshot taken before
# every statement: UPDATE of one column of a sixth of the rows (bytes per
# statement are one vector a touched chunk), DELETE of 5 %, and the multi-row
# INSERT that puts them back. Last, the order of values: Datum.Compare per
# kind pairing (int, float, int against float, string) and the typed filter
# kernels per row for every column kind × operand kind — what an order that is
# total costs over one that was not. Last, the statement's text: naming a
# predicate group (the memo and fresh-selectivity key), rendering a plan's
# EXPLAIN text serial and under Gather, and one indexed point lookup through
# ExecUnboxed on a plan-cache hit (the entry's text reused) and on a miss
# (parse, QGM, JITS, optimize, one render). CI runs this target.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Disabled|AtomicLoadBaseline|NilTracer' -benchmem ./internal/metrics/ ./internal/tracing/ ./internal/flightrec/ ./internal/accuracy/
	$(GO) test -run '^$$' -bench 'StatementRecorder|StatementLedger' -benchmem ./internal/engine/
	$(GO) test -run '^$$' -bench 'ResultFrame' -benchmem ./internal/wire/
	$(GO) test -run '^$$' -bench 'IndexAdvance/rows=(43000|430000)|Lookup10k' -benchmem -benchtime 0.3s ./internal/index/
	$(GO) test -run '^$$' -bench 'SampleDraw|EvaluateGroups|ColumnNDV' -benchmem -benchtime 0.3s ./internal/sampling/
	$(GO) test -run '^$$' -bench 'AddConstraintSteady' -benchmem -benchtime 0.3s ./internal/histogram/
	$(GO) test -run '^$$' -bench 'ExecuteTemplates/.*/(scan|HashJoin|MergeJoin|IndexNLJoin)|Finish' -benchmem -benchtime 20x ./internal/executor/
	$(GO) test -run '^$$' -bench 'BenchmarkDML' -benchmem -benchtime 30x ./internal/engine/
	$(GO) test -run '^$$' -bench 'Compare|AppendMatches' -benchmem -benchtime 0.3s ./internal/value/ ./internal/qgm/
	$(GO) test -run '^$$' -bench 'PredicateGroup|Explain' -benchmem -benchtime 0.3s ./internal/qgm/ ./internal/optimizer/
	$(GO) test -run '^$$' -bench 'PointLookup' -benchmem -benchtime 0.3s ./internal/engine/

# Short live runs of every fuzzer, the one list (CI's fuzz-smoke job runs
# this target): the serial-vs-parallel differential, the parser's two (never
# panics; Normalize round-trips), the order of values (three datums: a total
# order, key-equal exactly when Compare is 0, typed compares agree), the two of
# the wire's untrusted input (column-block decoder, frame reader), the index
# catch-up model (DML scripts against a naive scan; an execution there is a
# whole script, so the fuzzer is told to spend a second, not a minute, shrinking
# each input that found new coverage), the archive file (LoadArchive never
# panics, what it accepts answers lookups and survives one more fit; its inputs
# are kilobytes of base64, so it too shrinks for a second) and a fit's
# statistical invariants (AddConstraint scripts: masses finite, ≥ 0, summing to
# 1, retained constraints met; a script again, so a second) and predicate
# text (AppendText and predicate-group names equal the fmt renderers they
# replaced, byte for byte: archive files store those names). The seed corpora alone are replayed by
# every plain `make test`. `go test -fuzz=Name` exits 0 when Name matches
# nothing; TestMakefileRunSelectorsMatch resolves every name below.
fuzz:
	$(GO) test -run TestDifferential -fuzz=FuzzParallelSerial -fuzztime=30s ./internal/engine/
	$(GO) test -run FuzzParseNeverPanics -fuzz=FuzzParseNeverPanics -fuzztime=20s ./internal/sqlparser/
	$(GO) test -run FuzzNormalizeRoundTrip -fuzz=FuzzNormalizeRoundTrip -fuzztime=20s ./internal/sqlparser/
	$(GO) test -run FuzzValueOrder -fuzz=FuzzValueOrder -fuzztime=20s ./internal/value/
	$(GO) test -run FuzzDecodeRows -fuzz=FuzzDecodeRows -fuzztime=20s ./internal/wire/
	$(GO) test -run FuzzReadFrame -fuzz=FuzzReadFrame -fuzztime=20s ./internal/wire/
	$(GO) test -run FuzzIndexCatchUp -fuzz=FuzzIndexCatchUp -fuzztime=20s -fuzzminimizetime=1s ./internal/index/
	$(GO) test -run FuzzLoadArchive -fuzz=FuzzLoadArchive -fuzztime=20s -fuzzminimizetime=1s ./internal/core/
	$(GO) test -run FuzzAddConstraint -fuzz=FuzzAddConstraint -fuzztime=20s -fuzzminimizetime=1s ./internal/histogram/
	$(GO) test -run FuzzPredicateText -fuzz=FuzzPredicateText -fuzztime=20s ./internal/qgm/

# Chaos differential replay: the workload under deterministic injected
# faults (scan errors, sampling failures, worker panics, latency+deadlines,
# archive corruption). -count=2 re-arms every schedule from scratch, so a
# test that forgot to reset the fault registry fails here.
chaos:
	$(GO) test -run Chaos -count=2 ./...

check: build vet test race bench-test
