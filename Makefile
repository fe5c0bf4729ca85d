# Tier-1+ verification for the locmps module. `make check` is the gate every
# change must pass: build, vet, the full test suite under the race detector
# (this exercises ScheduleDual and the experiment worker pool concurrently),
# and a short benchmark smoke of the scheduler hot path.

GO ?= go

.PHONY: check build vet e2ebench-test test race race-core bench-smoke bench-gate bench-json bench-save bench-diff profile golden stress fuzz-smoke loadgen loadgen-smoke serve-smoke portfolio-smoke stream-smoke streamgen

check: build vet e2ebench-test race bench-smoke loadgen-smoke portfolio-smoke serve-smoke stream-smoke

build:
	$(GO) build ./...

# vet also fails when any tracked Go file is not gofmt-formatted.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# The e2ebench module (e2ebench/go.mod, `replace locmps => ../`) is not
# part of `./...` at the root, so build, vet and test it on its own: it is
# what keeps the deprecated shims it compiles against honest.
e2ebench-test:
	cd e2ebench && $(GO) vet ./... && $(GO) test -count=1 ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The concurrency-heavy packages (concurrent searches on pooled scratches,
# shared cross-request state, anytime cancellation) re-run fresh under the
# race detector at GOMAXPROCS 1, 2 and 4: serial, a 2-core host's width,
# and wide, with the golden determinism fixture checked at each width —
# concurrency must be invisible in the output. The whole suite then runs
# fresh at width 2, where every test must pass as it does at any other
# width.
race-core:
	for gmp in 1 2 4; do \
		echo "=== GOMAXPROCS=$$gmp ==="; \
		GOMAXPROCS=$$gmp $(GO) test -run TestGoldenDeterminism -count=1 . && \
		GOMAXPROCS=$$gmp $(GO) test -race -count=1 ./internal/core/... ./internal/serve/... || exit 1; \
	done
	GOMAXPROCS=2 $(GO) test -count=1 ./...

# A single iteration of each mid-scale scheduler benchmark: catches gross
# regressions and asserts the hot path still runs end to end. The cold-mix
# case runs one LoC-MPS search per stratum of the cold serving workload on
# a pinned worker; the baseline-engine and service-priming cases time
# M-HEFT's multi-width scan, CPA's allocation phase and a node priming the
# zipf key mix.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkLoCMPS(30Tasks16Procs|50Tasks64Procs)' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkColdMix' -benchtime 1x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'Benchmark(MHEFT64Tasks64Procs|CPA40Tasks64Procs)' -benchtime 1x -benchmem ./internal/sched
	$(GO) test -run '^$$' -bench 'BenchmarkServicePrime' -benchtime 1x -benchmem ./internal/serve

# Refresh the "current" snapshot in BENCH_locmps.json (the baseline inside
# is preserved).
bench-json:
	$(GO) run ./cmd/benchjson

# Regression gate against the committed BENCH_locmps.json: re-measures every
# case and fails when ns/op exceeds the committed current snapshot by more
# than the threshold (default 1.6x, generous for shared CI runners) or when
# any makespan changed — schedules are deterministic, so a changed makespan
# is a behavior change, never noise. Writes no file.
bench-gate:
	$(GO) run ./cmd/benchjson -gate

# Refresh the "current" snapshot in BENCH_serve.json: service-level
# throughput and latency from the closed-loop load generator (baseline
# inside is preserved; delete the file to re-baseline).
loadgen:
	$(GO) run ./cmd/loadgen

# Reduced load-generator pass for CI: runs the cold/warm/hit-speedup phases
# against the scheduling service, checks the invariants, writes no file.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -smoke

# Portfolio smoke, race-enabled: one cold race of the full engine set
# through the service, then warm deadline repeats that must hit the winner
# cache and stay within the routing-overhead bound. -race shakes the
# concurrent racers themselves.
portfolio-smoke:
	$(GO) run -race ./cmd/loadgen -portfolio-smoke

# End-to-end smoke of the networked service: boots a two-node schedserved
# fleet (race-enabled) with disk L2 caches, drives it over HTTP with
# loadgen -addr, then restarts the fleet on the same ports and L2
# directories and requires the replay to hit disk.
serve-smoke:
	scripts/serve_smoke.sh

# Streaming smoke, race-enabled: a short Poisson stream with failures and
# a shrink, plus an SWF trace replay, through the open-loop rolling-horizon
# rescheduler. Asserts the replay-rate floor, audit-clean end states,
# bit-identical incremental-vs-scratch plans and t=0 batch equivalence;
# writes no file.
stream-smoke:
	$(GO) run -race ./cmd/streamgen -smoke

# Refresh the "current" snapshot in BENCH_stream.json: replay-rate and
# reschedule-latency SLOs of the streaming scheduler (baseline inside is
# preserved; delete the file to re-baseline).
streamgen:
	$(GO) run ./cmd/streamgen

# Repeated runs of the mid-scale benchmarks in benchstat's input format:
# `make bench-save OUT=old.txt`, change code, `make bench-save OUT=new.txt`,
# then `make bench-diff OLD=old.txt NEW=new.txt` (benchstat itself is not
# vendored here).
OUT ?= bench.txt
bench-save:
	$(GO) test -run '^$$' -bench 'BenchmarkLoCMPS(30Tasks16Procs|50Tasks64Procs)' -benchtime 1x -benchmem -count 6 . | tee $(OUT)

# Compare two bench-save outputs with benchstat (install it once with
# `go install golang.org/x/perf/cmd/benchstat@latest`). OLD defaults to the
# last bench-save output; NEW is measured fresh when the file is absent.
OLD ?= bench.txt
NEW ?= bench.new.txt
bench-diff:
	@command -v benchstat >/dev/null 2>&1 || { \
		echo "bench-diff: benchstat not found; install it with:"; \
		echo "  go install golang.org/x/perf/cmd/benchstat@latest"; \
		exit 1; }
	@test -f $(OLD) || { echo "bench-diff: $(OLD) missing; record it first with 'make bench-save OUT=$(OLD)'"; exit 1; }
	@test -f $(NEW) || $(MAKE) bench-save OUT=$(NEW)
	benchstat $(OLD) $(NEW)

# CPU and heap profiles of the mid-scale scheduler benchmarks plus the
# 100-task cold case (DESIGN.md §13), for
# `go tool pprof profiles/locmps.test profiles/cpu.pprof`.
# PROFILE_BENCH narrows the capture to one case, e.g.
# `make profile PROFILE_BENCH='BenchmarkLoCMPS100Tasks128Procs$$'`.
PROFILE_BENCH ?= BenchmarkLoCMPS(30Tasks16Procs|50Tasks64Procs|100Tasks128Procs)$$
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchtime 2x \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof -o profiles/locmps.test .

# Re-check the golden determinism fixture on its own.
golden:
	$(GO) test -run TestGoldenDeterminism .

# Differential stress sweep: N seeded workloads through every scheduler,
# the internal/audit oracle and the metamorphic invariants. Failures are
# minimized and dumped to testdata/ as replayable JSON
# (`go run ./cmd/stress -case testdata/<dump>.json`).
N ?= 500
SEED ?= 1
stress:
	$(GO) run ./cmd/stress -n $(N) -seed $(SEED)

# Short fuzz passes over each fuzz target: the graph/format parsers, the
# audit oracle, the SWF trace reader, the HTTP schedule POST path, the
# disk L2 schedule and winner readers, and the chart's availability
# profile against its busy-list reference. ~63s total. -fuzz takes a
# regex and go test refuses to fuzz more than one matching target, so
# every pattern is anchored.
FUZZTIME ?= 7s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime $(FUZZTIME) ./internal/model
	$(GO) test -run '^$$' -fuzz '^FuzzReadSTG$$' -fuzztime $(FUZZTIME) ./internal/formats
	$(GO) test -run '^$$' -fuzz '^FuzzParseTGFF$$' -fuzztime $(FUZZTIME) ./internal/formats
	$(GO) test -run '^$$' -fuzz '^FuzzAudit$$' -fuzztime $(FUZZTIME) ./internal/audit
	$(GO) test -run '^$$' -fuzz '^FuzzReadSWF$$' -fuzztime $(FUZZTIME) ./internal/jobsched
	$(GO) test -run '^$$' -fuzz '^FuzzScheduleBody$$' -fuzztime $(FUZZTIME) ./internal/serve/httpserve
	$(GO) test -run '^$$' -fuzz '^FuzzDiskCacheGet$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDiskCacheGetWinner$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzChartProfile$$' -fuzztime $(FUZZTIME) ./internal/core
