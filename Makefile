# Swift-Sim development targets. `make verify` is the gate every change
# must pass; see .claude/skills/verify/SKILL.md and README.md for the
# golden-fixture workflow.

GO ?= go

.PHONY: verify tier1 lint golden fuzz-smoke distributed-e2e bench bench-quick benchcmp profile update-golden envelopes loc

# verify = tier-1 + lint + the golden regression corpus + a fuzz smoke of
# the four decoders + the multi-worker lease-plane scenarios. This is the full
# pre-commit gate.
verify: tier1 lint golden fuzz-smoke distributed-e2e

# tier1 is the repo's baseline check (ROADMAP.md): everything builds,
# vets, and tests green, with the race detector on the concurrent
# packages. bench/ is a nested module the root ./... patterns do not
# reach, and it is frozen (BENCHMARK.json), so it is vetted and built here
# explicitly, with no tests and no edits under bench/: a change to a name
# it compiles against must fail tier 1, not the benchmark run. Of the
# service's wire and client types those are service.WireJob{LeaseID,
# Token}, service.NewWorker, service.WorkerConfig{BaseURL, Name, Jobs},
# service.Spec, service.Status, service.Event and service.Stats; of the
# engine, engine.New, Register, RegisterSharded(t, shard), ShardContext(s),
# SetParallel(n), SetEpoch(k), Context, Schedule, Run and
# ModelKind/CycleAccurate, plus sim.Options{EngineThreads} (its ~20 s test
# suite stays out: `cd bench && go test .`).
tier1:
	$(GO) build ./...
	$(GO) vet ./...
	cd bench && $(GO) vet . && $(GO) build -o /dev/null .
	$(GO) test ./...
	$(GO) test -race ./internal/runner/... ./internal/engine/... ./internal/mem/... ./internal/smcore/... ./internal/cache/... ./internal/noc/... ./internal/dram/... ./internal/obs/... ./internal/service/... ./internal/sim/... ./internal/snap/... ./cmd/swiftsimd/... ./cmd/swiftsim-worker/...
	$(GO) test -race -run 'TestEpoch|TestSnapshot|TestSample' ./internal/regress/

# lint enforces gofmt and go vet, and additionally runs staticcheck and
# govulncheck when they are installed (they are optional: the build must
# stay dependency-free on machines without them).
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping"; fi

# golden re-checks the committed 60-case fixture corpus only (fast drift
# check without the rest of the suite).
golden:
	$(GO) test -run Golden ./internal/regress/...

# fuzz-smoke runs each fuzz target for 10s — long enough to catch easy
# parser regressions, short enough for every commit.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseTrace -fuzztime=10s ./internal/trace/
	$(GO) test -fuzz=FuzzLoadConfig -fuzztime=10s ./internal/config/
	$(GO) test -fuzz=FuzzParseSnapshot -fuzztime=10s ./internal/sim/
	$(GO) test -fuzz=FuzzOptionsJSON -fuzztime=10s ./internal/sim/

# distributed-e2e runs the multi-worker lease-plane scenarios — daemon +
# worker loops with fault injection (worker killed mid-job, lease expiry
# and requeue, fencing rejections) — race-on and repeated, as their own
# verify stage.
distributed-e2e:
	$(GO) test -race -count=2 -run 'TestDistributed' ./internal/service/

# update-golden regenerates the golden fixtures after an intended metrics
# change. Review the fixture diff like any other code change.
update-golden:
	$(GO) test -run Golden ./internal/regress/ -update

# bench-quick smoke-runs every benchmark once (compile + no-crash check).
bench-quick:
	$(GO) test -bench . -benchtime 1x ./...

# bench records the perf-gate benchmarks (the ones with a committed
# baseline) with enough repetitions for stable medians. -benchmem adds the
# B/op and allocs/op columns that feed the allocation ceilings below.
# Writes bench.txt.
BENCH_PKGS = . ./internal/engine/
BENCH_FILTER = 'BenchmarkSimulatorThroughput|BenchmarkGoldenCorpus|BenchmarkEngineActiveSet|BenchmarkObsOff|BenchmarkEngineRelaxed|BenchmarkEngineSampled'
bench:
	$(GO) test -run '^$$' -bench $(BENCH_FILTER) -benchmem -benchtime 2x -count 5 $(BENCH_PKGS) | tee bench.txt

# benchcmp compares a fresh `make bench` run against the committed
# baseline (bench_baseline.txt) and fails if performance regressed below
# 0.9x of it. Regenerate the baseline intentionally with
# `make bench && cp bench.txt bench_baseline.txt`.
#
# Sampled execution must keep its speedup floor: the corpus=off/corpus=on
# pair of BenchmarkEngineSampled runs single simulations back to back.
# BenchmarkEngineRelaxed's k=1/k=8 pair is recorded with no floor.
#
# Allocation counts repeat exactly where times depend on what else the
# host is doing, so the ceilings are checked first: a whole Basic, Detailed
# or Memory simulation stays under a ceiling set about 25% above the
# measured 2,981, 11,122 and 836 allocs/op, which neither the timed
# memory path nor the SM core's issue→writeback path contributes to once
# warm. One closure or queue regrowth per request or per instruction back
# on those paths is +5,000 or more, so it trips the ceiling instead of
# drifting in.
benchcmp: bench
	$(GO) run ./cmd/benchcmp -metric allocs/op \
		-max 'BenchmarkSimulatorThroughput/Swift-Sim-Basic,3730' \
		-max 'BenchmarkSimulatorThroughput/Detailed,13900' \
		-max 'BenchmarkSimulatorThroughput/Swift-Sim-Memory,1045' \
		bench_baseline.txt bench.txt
	$(GO) run ./cmd/benchcmp -gate 0.9 bench_baseline.txt bench.txt
	$(GO) run ./cmd/benchcmp -within 'BenchmarkEngineSampled/corpus=off,BenchmarkEngineSampled/corpus=on,3.0' bench_baseline.txt bench.txt

# profile captures cpu and heap profiles of the golden corpus (the
# end-to-end mix over the engine's hot path) into prof/, with the test
# binary kept alongside for symbolization:
#   go tool pprof prof/golden.test prof/golden.cpu.pprof
# It then writes the table allocation work starts from: every heap object
# of a Basic, a Detailed and a Memory simulation (-memprofilerate 1),
# ranked by allocating function, into prof/allocs.basic.txt,
# prof/allocs.detailed.txt and prof/allocs.memory.txt (`go tool pprof
# -sample_index=alloc_objects -list <func>` on the kept profile gives the
# lines).
# EXPERIMENTS.md documents how the committed numbers were derived from
# these profiles. prof/ is gitignored; profiles are host artifacts.
profile:
	mkdir -p prof
	$(GO) test -run '^$$' -bench BenchmarkGoldenCorpus -benchtime 1x \
		-cpuprofile prof/golden.cpu.pprof -memprofile prof/golden.mem.pprof \
		-o prof/golden.test .
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput/Swift-Sim-Basic' -benchtime 5x \
		-memprofile prof/allocs.basic.pprof -memprofilerate 1 -o prof/allocs.test .
	$(GO) tool pprof -sample_index=alloc_objects -top prof/allocs.test prof/allocs.basic.pprof > prof/allocs.basic.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput/Detailed' -benchtime 5x \
		-memprofile prof/allocs.detailed.pprof -memprofilerate 1 -o prof/allocs.test .
	$(GO) tool pprof -sample_index=alloc_objects -top prof/allocs.test prof/allocs.detailed.pprof > prof/allocs.detailed.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput/Swift-Sim-Memory' -benchtime 5x \
		-memprofile prof/allocs.memory.pprof -memprofilerate 1 -o prof/allocs.test .
	$(GO) tool pprof -sample_index=alloc_objects -top prof/allocs.test prof/allocs.memory.pprof > prof/allocs.memory.txt
	@head -25 prof/allocs.basic.txt

# envelopes regenerates every committed accuracy envelope — the relaxed-
# epoch drift fixtures and the sampled-execution error fixtures — in one
# pass after an intended accuracy change. Review the fixture diffs like
# golden diffs.
envelopes:
	$(GO) test -run 'TestEpochRelaxedEnvelope|TestSampleEnvelope' ./internal/regress/ -update

# loc prints the size metric ROADMAP.md calls a headline: non-blank,
# non-comment lines of non-test Go, per package and in total, with the
# nested bench/ module left out (comments are // lines; the repo has no
# block comments). CHANGES.md entries quote it.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | sort | xargs awk ' \
		FNR == 1 { pkg = FILENAME; sub(/\/[^\/]*$$/, "", pkg) } \
		{ sub(/^[ \t]+/, "") } \
		/^$$/ || /^\/\// { next } \
		{ n[pkg]++; total++ } \
		END { for (p in n) printf "%6d  %s\n", n[p], p | "sort -k2"; close("sort -k2"); printf "%6d  total\n", total }'
