GO ?= go

.PHONY: all build test race vet bench bench-test bench-pairs bench-gate bench-smoke fuzz chaos check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector. The concurrency proofs only prove
# anything here: the morsel runner (shared meters, parallel scans, joins,
# aggregation, sampling), concurrent DML, memory accounting, the SQL service
# and plan cache, network chaos against the server, and the re-optimization
# differential. CI runs this target once.
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
# WORKLOAD and SEED, which side runs first flipping every pair. The record
# goes to stdout as JSON: the parent commit, nproc and GOMAXPROCS, and per
# end-to-end metric every run's value, both medians with quartiles, their
# ratio and the pairs won. A change commits its records, a JSON list, as
# BENCH_<n>.json at the root (TestBenchRecordsNameTheBenchmark reads them).
# An unknown workload or ref exits non-zero before anything runs. About
# N × 1 min.
#
#   make bench-pairs REF=HEAD~1 WORKLOAD=paper_mixed N=10
N ?= 10
SEED ?= 1
bench-pairs:
	$(GO) run ./cmd/benchpairs -ref '$(REF)' -workload '$(WORKLOAD)' -n '$(N)' -seed '$(SEED)'

# The regression gate: bench-pairs over every workload of BENCHMARK.json, REF
# against the working tree, N pairs each. The records go to stdout as one
# JSON list, the BENCH_<n>.json a change commits. It exits non-zero when any
# workload fails cmd/benchpairs' gate: a run not correct or with failed
# operations, an end-to-end metric missing from a run, or a change median
# worse than the parent's by more than the metric's bound. About N × 4 min.
#
#   make -s bench-gate REF=HEAD~1 N=3 > BENCH_<n>.json
WORKLOADS = $(shell sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json)
bench-gate:
	@status=0; sep='['; for w in $(WORKLOADS); do echo "$$sep"; sep=','; \
		$(GO) run ./cmd/benchpairs -ref '$(REF)' -workload $$w -n '$(N)' -seed '$(SEED)' || status=1; \
	done; echo ']'; exit $$status

# Telemetry must be free when nobody is looking: the disabled-path
# benchmarks for the flight recorder (its ring and its trace writer both
# off), the always-on metrics histogram's Observe (the counts themselves are
# plain atomics of their owners), the always-on feedback store's Observe of
# a column group it holds (both accounts and the error-factor histogram, no
# allocation), plus the end-to-end statement benchmark with the recorder
# on/off, all with -benchmem so an unexpected allocation fails review at a
# glance. Then
# the result-frame codec (encode, decode, whole-frame round trip at 50, 500
# and 5000 rows): its allocations per frame must not grow with the rows;
# result/… is what the server runs, an unboxed scan result of an int-heavy
# and a string-heavy shape written from its columns, next to boxing the same
# result and encoding the rows.
# Last, the index layer: one image advance per kind of DML at 43k and 430k
# rows, int and string keys, and float keys at 43k (a catch-up allocates
# nothing once warm; only first-build and the 40 % rewrite sort everything;
# the delta-* pairs price merge against sort around rebuildLimit, and run at
# 10k rows too under `-bench IndexAdvance`) and a point probe of an int, a
# float and a string column, and with a fallback bound. Then JITS
# collection, one table's worth per layer: the
# columnar draw (2000 of 43k rows, 8 columns), bitmap group evaluation (7
# groups over 3 predicates), the NDV counter and the min/max walk per column
# kind (strings of up to 8, 16 and 17 bytes), one archive
# merge at the shape measured on collect_all (164 cells, 35 constraints, 20
# of them re-observed boxes) and at the budget ceiling (4096 cells, 48
# constraints, 16 re-observed), and one sampled table's whole collect pass
# on a warm engine (draw, evaluate, count, materialize). Once warm,
# SampleDraw, EvaluateGroups and CollectTable allocate nothing that grows
# with the sample — the sample, its positions, the bitmaps and the fit's cell
# lists are reused; what is left is the table snapshot, the runner's closures
# and the compiled matchers, a few hundred bytes — and ColumnNDV and
# ColumnMinMax allocate nothing at all. Last, the
# executor's own row: the six paper templates at scale 0.01 under the join
# methods the optimizer picks among (bytes and allocations per execution are
# what late materialization is held to; forced nested loops take 0.4 s an
# execution and run under `go test -bench ExecuteTemplates` by hand), the
# two exits of one 5000-row scan: rows (boxed, Execute) and columns (Run),
# and one small hash join end to end (its build table's bytes and
# allocations). Then the
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
	$(GO) test -run '^$$' -bench 'Disabled|HistogramObserve' -benchmem ./internal/metrics/ ./internal/flightrec/
	$(GO) test -run '^$$' -bench 'Observe' -benchmem ./internal/feedback/
	$(GO) test -run '^$$' -bench 'StatementRecorder' -benchmem ./internal/engine/
	$(GO) test -run '^$$' -bench 'ResultFrame' -benchmem ./internal/wire/
	$(GO) test -run '^$$' -bench 'IndexAdvance/rows=(43000|430000)|Lookup10k' -benchmem -benchtime 0.3s ./internal/index/
	$(GO) test -run '^$$' -bench 'SampleDraw|EvaluateGroups|ColumnNDV|ColumnMinMax' -benchmem -benchtime 0.3s ./internal/sampling/
	$(GO) test -run '^$$' -bench 'AddConstraintSteady' -benchmem -benchtime 0.3s ./internal/histogram/
	$(GO) test -run '^$$' -bench 'CollectTable' -benchmem -benchtime 0.3s ./internal/core/
	$(GO) test -run '^$$' -bench 'ExecuteTemplates/.*/(scan|HashJoin|MergeJoin|IndexNLJoin)|Finish|HashJoinExecution' -benchmem -benchtime 20x ./internal/executor/
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
# replaced, byte for byte: archive files store those names) and the range a
# predicate selects (qgm.Predicate.Range: the index probe built from it
# returns exactly the rows MatchesDatum accepts, the histogram box derived
# from it holds every accepted value up to the coordinate resolution, exactly
# on an int column, and a NULL operand probes nothing and has no box) and the
# Duj1 counter (a column's counts equal a Go map's over its equality keys, the
# min/max pass's domain the Order walk it replaced; a column is up to 4096
# rows, so it too shrinks for a second). The seed corpora alone are replayed by
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
	$(GO) test -run FuzzPredicateRange -fuzz=FuzzPredicateRange -fuzztime=20s ./internal/executor/
	$(GO) test -run FuzzDistinctCounter -fuzz=FuzzDistinctCounter -fuzztime=20s -fuzzminimizetime=1s ./internal/sampling/

# Chaos differential replay: the workload under deterministic injected
# faults (scan errors, sampling failures, worker panics, latency+deadlines,
# archive corruption). -count=2 re-arms every schedule from scratch, so a
# test that forgot to reset the fault registry fails here.
chaos:
	$(GO) test -run Chaos -count=2 ./...

check: build vet test race bench-test
