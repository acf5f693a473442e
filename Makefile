# Tier-1 checks and the parallel-layer benchmark report.
#
#   make             build + test
#   make check       build + vet + test + race + fuzz-smoke + serve-smoke
#                    + perfbench-check + crossover (tier-1, everything CI
#                    runs)
#   make verify      alias for check
#   make fuzz-smoke  run each native fuzz target briefly (10s apiece)
#   make serve-smoke build mdserve and drive it end to end over TCP
#   make perfbench-check  vet + test the nested perfbench/ benchmark module
#   make metrics     regenerate metrics.json + OPTGAP.md and sanity-check them
#   make bench-json  regenerate BENCH_parallel.json on this host
#   make bench-reduction  regenerate BENCH_reduction.json on this host
#   make bench-sched      regenerate BENCH_sched.json on this host
#   make bench-throughput regenerate BENCH_throughput.json on this host
#   make bench-serve      regenerate BENCH_serve.json on this host
#   make bench-opt        regenerate BENCH_opt.json on this host
#   make opt-gap          regenerate the OPTGAP.md optimality-gap report
#   make bench-repr       regenerate BENCH_repr.json on this host
#   make crossover        regenerate the CROSSOVER.md backend frontier
#   make profile          CPU+heap pprof profiles of the throughput run
#   make bench-compare    re-measure and gate against BENCH_reduction.json,
#                         BENCH_sched.json, BENCH_throughput.json,
#                         BENCH_serve.json, BENCH_opt.json and
#                         BENCH_repr.json

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race vet bench bench-json bench-reduction bench-sched bench-throughput bench-serve bench-opt bench-repr crossover bench-compare bench-alloc metrics opt-gap profile fuzz-smoke serve-smoke perfbench-check check verify clean

all: build test

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order within each package, so
# accidental order dependencies between tests fail in CI instead of
# lurking.
test:
	$(GO) test -shuffle=on ./...

# The worker pools in internal/parallel, internal/forbidden, internal/core
# and internal/tables are only meaningfully exercised under -race.
race:
	$(GO) test -race -shuffle=on ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The query hot-path benchmarks that pin the observability bargain
# (metrics disabled must stay at 0 allocs/op) plus the arena pins:
# module Reset and steady-state arena scheduling allocate nothing.
bench-alloc:
	$(GO) test -run '^$$' -bench 'BenchmarkCheck|BenchmarkAssign' -benchmem ./internal/query/
	$(GO) test -run '^TestResetDoesNotAllocate$$' -count=1 -v ./internal/query/
	$(GO) test -run '^TestArenaSteadyStateZeroAlloc$$' -count=1 -v ./internal/sched/

# A machine-readable profile of a representative evaluation run (Table 6
# exercises scheduling, reduction, the cache and the worker pool). The
# emitted JSON is structurally validated by cmd/paper itself; the loop
# below additionally checks that every expected scope contributed.
metrics:
	$(GO) run ./cmd/paper -table 6 -loops 120 -parallel 2 -metrics metrics.json > /dev/null
	@for s in query sched core parallel; do \
		grep -q "\"$$s\." metrics.json || { echo "metrics.json: missing scope $$s" >&2; exit 1; }; \
	done
	@echo "metrics.json OK"
	$(GO) run ./cmd/paper -opt-gap OPTGAP.md > /dev/null
	@git diff --quiet -- OPTGAP.md || { echo "OPTGAP.md: regeneration changed the committed report" >&2; exit 1; }
	@echo "OPTGAP.md OK"

# Serial-vs-parallel wall time for the Table 5/6 harnesses, the reduction
# pipeline, and the reduction cache. Speedups are host-dependent; the
# report records GOMAXPROCS and NumCPU.
bench-json:
	$(GO) run ./cmd/paper -bench-json BENCH_parallel.json -loops 300

# Per-stage reduction wall time (F-matrix, genset, prune, select, exact)
# over the Tables 1-4 workload. Commits the baseline bench-compare gates
# against; regenerate deliberately when the pipeline legitimately changes.
bench-reduction:
	$(GO) run ./cmd/paper -bench-reduction BENCH_reduction.json

# Scheduler slot-scan wall time: the full IMS loop corpus per Table 6
# representation, range-query scan (serial_ns, the gated column) vs the
# naive per-cycle scan (parallel_ns). Commits the baseline bench-compare
# gates against; regenerate deliberately when the scheduler or query
# layer legitimately changes.
bench-sched:
	$(GO) run ./cmd/paper -bench-sched BENCH_sched.json

# Streamed-corpus scheduler throughput: 100k stratified loops through
# per-worker arenas, per representation x worker count. The headline
# loops-per-second metric of the scheduling stack. Commits the baseline
# bench-compare gates against; entries record the host shape, and
# benchgate skips (not fails) entries measured under a different one.
bench-throughput:
	$(GO) run ./cmd/paper -bench-throughput BENCH_throughput.json

# mdserve load test: the full handler stack on a loopback listener,
# one-shot batches and stateful NDJSON session streams, at client
# counts 1 and 8. Records req/s and p50/p99 request latency; serial_ns
# (workload wall time) is the gated column. Commits the baseline
# bench-compare gates against; regenerate deliberately when the serving
# layer legitimately changes.
bench-serve:
	$(GO) run ./cmd/paper -bench-serve BENCH_serve.json -bench-workers 1,8

# Exact-scheduler wall time: the stratified opt-gap corpus through
# sched.Optimal at the default budget (serial_ns, the gated column) vs
# the plain IMS pass (parallel_ns), at workers 1 and 8. Commits the
# baseline bench-compare gates against; entries record the host shape,
# and benchgate skips (not fails) entries measured under a different one.
bench-opt:
	$(GO) run ./cmd/paper -bench-opt BENCH_opt.json -bench-workers 1,8

# The committed optimality-gap report: the stratified corpus scheduled by
# the exact searcher vs the IMS heuristic, per stratum. Fully
# deterministic (fixed corpus seed, deterministic schedulers), so
# regeneration on any host must reproduce the committed bytes.
opt-gap:
	$(GO) run ./cmd/paper -opt-gap OPTGAP.md

# Corpus scheduling wall time per query backend (acyclic PA-RISC blocks
# per fixed backend, Cydra 5 modulo loops per modulo-capable policy).
# serial_ns is the gated column. Commits the baseline bench-compare
# gates against; regenerate deliberately when the query layer
# legitimately changes.
bench-repr:
	$(GO) run ./cmd/paper -bench-repr BENCH_repr.json

# The committed representation-crossover frontier: query.Select's
# deterministic calibration over real machines and seeded random strata.
# No wall clock anywhere (counted probe work only), so regeneration on
# any host must reproduce the committed bytes; `make check` runs it, so
# CI gates the committed frontier.
crossover:
	$(GO) run ./cmd/paper -crossover CROSSOVER.md
	@git diff --quiet -- CROSSOVER.md || { echo "CROSSOVER.md: regeneration changed the committed report" >&2; exit 1; }
	@echo "CROSSOVER.md OK"

# pprof profiles of the scheduler-throughput hot path — the run the
# bit-parallel verdict scan was tuned against. Every -bench-* mode
# accepts the same flags; this target profiles the headline one.
# Inspect with `go tool pprof -top cpu.pprof` (or mem.pprof).
profile:
	$(GO) run ./cmd/paper -bench-throughput /tmp/BENCH_throughput.profile.json \
		-bench-workers 1 -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof -top cpu.pprof"

# Non-tier-1 perf smoke: re-measure the per-stage, scheduler and
# throughput reports and fail if anything regressed more than 20%
# against the committed baselines. Wall-time gating is inherently
# host-sensitive, which is why this stays out of `make check`. The
# throughput re-measurement covers workers 1 and 8 only (the scaling
# endpoints); the committed baseline keeps the full 1,2,4,8 sweep.
bench-compare:
	$(GO) run ./cmd/paper -bench-reduction /tmp/BENCH_reduction.current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_reduction.json -current /tmp/BENCH_reduction.current.json
	$(GO) run ./cmd/paper -bench-sched /tmp/BENCH_sched.current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_sched.json -current /tmp/BENCH_sched.current.json
	$(GO) run ./cmd/paper -bench-throughput /tmp/BENCH_throughput.current.json -bench-workers 1,8
	$(GO) run ./cmd/benchgate -baseline BENCH_throughput.json -current /tmp/BENCH_throughput.current.json -entries '-w[18]$$'
	$(GO) run ./cmd/paper -bench-serve /tmp/BENCH_serve.current.json -bench-workers 1,8
	$(GO) run ./cmd/benchgate -baseline BENCH_serve.json -current /tmp/BENCH_serve.current.json
	$(GO) run ./cmd/paper -bench-opt /tmp/BENCH_opt.current.json -bench-workers 1,8
	$(GO) run ./cmd/benchgate -baseline BENCH_opt.json -current /tmp/BENCH_opt.current.json
	$(GO) run ./cmd/paper -bench-repr /tmp/BENCH_repr.current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_repr.json -current /tmp/BENCH_repr.current.json

# Brief runs of the native fuzz targets. FuzzReducePreservesF fuzzes the
# paper's theorem (reduction preserves the forbidden-latency matrix);
# FuzzServeBatchDecode pins that no bytes on the wire can panic or 5xx
# the batch endpoint. Kept out of `make test` so `go test ./...` stays
# fast; corpus regressions in testdata/ still run there.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReducePreservesF$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzParseObjective$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzServeBatchDecode$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzServeSessionStream$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzOptimalNeverInvalid$$' -fuzztime $(FUZZTIME) ./internal/sched/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/mdl/

# End-to-end daemon smoke: build cmd/mdserve, boot it on an ephemeral
# port, run one reduce + one batch + a metrics scrape over real TCP, then
# SIGTERM and require a clean drain. Build-tagged so plain `go test`
# skips it.
serve-smoke:
	$(GO) test -tags smoke -run '^TestServeSmoke$$' -count=1 ./internal/serve/

# perfbench/ is a Go module of its own (it imports this one through a
# replace), so `./...` never enters it: without this target a core API
# change that breaks the benchmark would pass every other check.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

check: build vet test race fuzz-smoke serve-smoke perfbench-check crossover

verify: check

clean:
	$(GO) clean ./...
