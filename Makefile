# Swift-Sim development targets. `make verify` is the gate every change
# must pass; see .claude/skills/verify/SKILL.md and README.md for the
# golden-fixture workflow.

GO ?= go

.PHONY: verify tier1 lint golden fuzz-smoke distributed-e2e repeat bench-quick profile update-golden envelopes loc loc-head mutate

# verify = tier-1 + lint + the golden regression corpus + a fuzz smoke of
# the four decoders + the multi-worker lease-plane scenarios + the short
# suite run twice in one process + one run of every benchmark. This is the
# full pre-commit gate. It gates no host time: the BENCHMARK.json harness
# (`bash bench/run.sh`) measures that.
verify: tier1 lint golden fuzz-smoke distributed-e2e repeat bench-quick

# tier1 is the repo's baseline check (ROADMAP.md): everything builds,
# vets, and tests green, with the race detector on the concurrent
# packages. The performance gates that hold on any host are counts, so they
# are tests here: whole-run allocation ceilings
# (TestWarmRunAllocatesOnlyItsAssembly, internal/sim) and the sampled
# ticked-cycle floor (TestSampleSpeedsUpTickedCycles, internal/regress).
# bench/ is a nested module the root ./... patterns do not
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
	$(GO) test -race ./internal/runner/... ./internal/engine/... ./internal/mem/... ./internal/memo/... ./internal/smcore/... ./internal/cache/... ./internal/reuse/... ./internal/analytic/... ./internal/trace/... ./internal/workload/... ./internal/noc/... ./internal/dram/... ./internal/obs/... ./internal/service/... ./internal/sim/... ./internal/snap/... ./cmd/swiftsimd/... ./cmd/swiftsim-worker/...
	$(GO) test -race -run 'TestEpoch|TestSnapshot|TestSample' ./internal/regress/

# lint enforces gofmt and go vet, holds every CHANGES.md line (one per
# change) to 1,200 bytes, refuses a memo keyed by a pointer in non-test Go
# (`memo.New[*`: it keeps every object it has seen reachable; a fact about
# one immutable object is kept on the object, DESIGN.md §12.1), and
# additionally runs staticcheck and govulncheck when they are installed
# (they are optional: the build must stay dependency-free on machines
# without them).
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@keyed="$$(grep -rn --include='*.go' --exclude='*_test.go' 'memo\.New\[\*' .)"; if [ -n "$$keyed" ]; then \
		echo "a memo keyed by a pointer (keep the fact on the object, DESIGN.md §12.1):"; echo "$$keyed"; exit 1; \
	fi
	@LC_ALL=C awk 'length > 1200 { printf "CHANGES.md:%d: %d bytes, over 1200\n", NR, length; bad = 1 } END { exit bad }' CHANGES.md
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping"; fi

# golden re-checks the committed 240-case fixture corpus and the reference
# cycles every error figure divides by (internal/hwmodel/testdata/cycles.txt)
# only (fast drift check without the rest of the suite).
golden:
	$(GO) test -run Golden ./internal/regress/... ./internal/hwmodel/

# fuzz-smoke runs each fuzz target for 10s — long enough to catch easy
# parser regressions, short enough for every commit. A worker minimizes
# each new input it finds, at a cost that grows with the square of the
# input's length; for checkpoint-sized inputs that took the whole 10s, and
# the trace and config targets stalled for seconds at a time, so the three
# text decoders minimize for at most 100 runs of their target.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseTrace -fuzztime=10s -fuzzminimizetime=100x ./internal/trace/
	$(GO) test -fuzz=FuzzLoadConfig -fuzztime=10s -fuzzminimizetime=100x ./internal/config/
	$(GO) test -fuzz=FuzzParseSnapshot -fuzztime=10s -fuzzminimizetime=100x ./internal/sim/
	$(GO) test -fuzz=FuzzOptionsJSON -fuzztime=10s ./internal/sim/

# distributed-e2e runs the multi-worker lease-plane scenarios — daemon +
# worker loops with fault injection (worker killed mid-job, lease expiry
# and requeue, fencing rejections) — race-on and repeated, as their own
# verify stage.
distributed-e2e:
	$(GO) test -race -count=2 -run 'TestDistributed' ./internal/service/

# repeat runs the short suite twice in one process: a test that passes only
# on its first run (a process-wide memo or counter it finds warm, a global
# it leaves set) fails here.
repeat:
	$(GO) test -count=2 -short ./...

# update-golden regenerates the golden fixtures, the reference's cycles
# included, after an intended metrics change. Review the fixture diff like
# any other code change.
update-golden:
	$(GO) test -run Golden ./internal/regress/ ./internal/hwmodel/ -update

# bench-quick runs every benchmark once, in its -short form: it checks that
# each compiles and completes, and it runs the assertions that live inside
# benchmarks (BenchmarkEngineRelaxed's k=1 cycles equal the serial run's,
# BenchmarkObsOff's off-path trace hooks allocate nothing). Timing is the
# BENCHMARK.json harness's job (`bash bench/run.sh`), not this target's.
bench-quick:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

# profile captures cpu and heap profiles of the golden corpus (the
# end-to-end mix over the engine's hot path) into prof/, with the test
# binary kept alongside for symbolization:
#   go tool pprof prof/golden.test prof/golden.cpu.pprof
# It then writes the tables CPU and allocation work start from: the CPU
# time of the benchmark's Basic and Detailed catalog jobs, of the same
# jobs under Memory with a warm profile memo, and of Basic on the scatter
# apps alone (PAGERANK, BFS, SSSP), by function (BenchmarkCatalog, go tool
# pprof -top), into prof/cpu.basic.txt, prof/cpu.detailed.txt,
# prof/cpu.memory.txt and prof/cpu.scatter.txt, and every heap
# object
# of a Basic, a Detailed and a Memory simulation (-memprofilerate 1),
# ranked by allocating function, into prof/allocs.basic.txt,
# prof/allocs.detailed.txt and prof/allocs.memory.txt (`go tool pprof
# -sample_index=alloc_objects -list <func>` on the kept profile gives the
# lines).
# EXPERIMENTS.md quotes these profiles where a change's attribution used
# them. prof/ is gitignored; profiles are host artifacts.
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
	$(GO) test -run '^$$' -bench 'BenchmarkCatalog/Basic' -skip 'BenchmarkCatalog/Basic/scatter' -benchtime 20x \
		-cpuprofile prof/cpu.basic.pprof -o prof/cpu.test .
	$(GO) tool pprof -top prof/cpu.test prof/cpu.basic.pprof > prof/cpu.basic.txt
	$(GO) test -run '^$$' -bench 'BenchmarkCatalog/Basic/scatter' -benchtime 20x \
		-cpuprofile prof/cpu.scatter.pprof -o prof/cpu.test .
	$(GO) tool pprof -top -relative_percentages -tagfocus catalog=Basic/scatter prof/cpu.test prof/cpu.scatter.pprof > prof/cpu.scatter.txt
	$(GO) test -run '^$$' -bench 'BenchmarkCatalog/Detailed' -benchtime 20x \
		-cpuprofile prof/cpu.detailed.pprof -o prof/cpu.test .
	$(GO) tool pprof -top prof/cpu.test prof/cpu.detailed.pprof > prof/cpu.detailed.txt
	$(GO) test -run '^$$' -bench 'BenchmarkCatalog/Memory' -benchtime 20x \
		-cpuprofile prof/cpu.memory.pprof -o prof/cpu.test .
	$(GO) tool pprof -top prof/cpu.test prof/cpu.memory.pprof > prof/cpu.memory.txt
	@head -25 prof/allocs.basic.txt

# envelopes regenerates every committed accuracy envelope — the relaxed-
# epoch drift fixtures and the sampled-execution error fixtures — in one
# pass after an intended accuracy change. Review the fixture diffs like
# golden diffs.
envelopes:
	$(GO) test -run 'TestEpochRelaxedEnvelope|TestSampleEnvelope' ./internal/regress/ -update

# mutate runs the mutation driver (internal/regress/mutate_test.go,
# DESIGN.md §8) over the eight core simulator packages and rewrites
# internal/regress/testdata/mutate.txt: 25 seeded mutants a package, each
# run against its package's tests and, if they miss it, against
# internal/regress and internal/sim. A survivor the record does not
# triage fails TestMutationRecord. It is not part of tier1 or verify,
# where TestMutate skips: it took 28 minutes (1,699 s) on a 2-vCPU host.
mutate:
	$(GO) test ./internal/regress/ -run '^TestMutate$$' -mutate -timeout 0 -v

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

# loc-head prints loc for the committed tree: HEAD, from `git archive`
# unpacked into a temp dir, counted by this Makefile's rule. Run it and
# `make loc` before committing, and the two are the change's before and
# after.
loc-head:
	@d="$$(mktemp -d)"; git archive HEAD | tar -x -C "$$d" && \
		$(MAKE) --no-print-directory -s -C "$$d" -f "$(CURDIR)/Makefile" loc; \
		s=$$?; rm -rf "$$d"; exit $$s
