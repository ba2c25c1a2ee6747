GO ?= go
BENCH_OUT ?= BENCH_pr10.json
BENCH_BASE ?= BENCH_pr8.json
CHAOS_SEEDS ?= 6
CILKVET ?= bin/cilkvet

.PHONY: build vet vet-unsafe lint cilkvet check-binaries inline-check test race bench-check chaos chaos-service bench bench-directory bench-typed bench-spa bench-lookup bench-json bench-diff docs-check fmt-check ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-unsafe runs only the unsafeptr analyzer, explicitly, as the gate for
# the word-packed SPA slot representation (unsafe.Pointer view words and
# flag-tagged owner stamps).  Plain `go vet` includes unsafeptr too, but a
# future analyzer-flag tweak to the main vet target must not silently drop
# the one check the unsafe code depends on.
vet-unsafe:
	$(GO) vet -unsafeptr ./...

# cilkvet builds the repo's own analysis suite (cmd/cilkvet): six
# analyzers over the lock-free runtime's invariants, documented in
# docs/STATIC_ANALYSIS.md.  The binary also speaks the go vet tool
# protocol, so CI caches it and `go vet -vettool=bin/cilkvet` works.
cilkvet:
	$(GO) build -o $(CILKVET) ./cmd/cilkvet

# lint runs the cilkvet suite over the whole module plus the unsafeptr vet
# gate for the word-packed slot representation (formerly the separate
# vet-unsafe target).  The tree must come back clean: every exception is
# an explicit //cilkvet:allow comment with a justification.
lint: cilkvet vet-unsafe
	$(CILKVET) -C . ./...

# check-binaries fails when a compiled test binary is tracked by git (a
# 4.6 MB core.test once slipped into the tree).
check-binaries:
	@out=$$(git ls-files '*.test'); \
	if [ -n "$$out" ]; then \
		echo "committed test binaries (add to .gitignore and git rm):"; echo "$$out"; exit 1; \
	fi

# inline-check pins the compiler's inlining decisions for the typed-lookup
# fast path (slot probe, owner-stamp check, bucket-head probe, epoch and
# worker-id accessors).  A helper growing past the inlining budget would
# silently turn the single-deref steady-state hit into a call chain; this
# greps -gcflags=-m and fails when any pinned decision is gone.
inline-check:
	@GO="$(GO)" sh scripts/inline_check.sh

test:
	$(GO) test ./...

# race exercises the Chase–Lev deque's memory-ordering assumptions (the
# concurrent stress tests in internal/sched), both reducer engines, the typed
# reducers, and PBFS over its bag reducer (dist is filled with plain stores
# before the first Run and claimed by CAS after it) under the race detector,
# then the scheduler, the engine and the facade's suites again with 1, 2 and
# 4 Ps: the park/wake protocol is barely exercised by a run with one, and a
# Session's caller is one of its workers, so how many Ps the callers and the
# pool share decides which of them ever steals.  Run it on every scheduler
# change.
race:
	$(GO) test -race ./internal/sched/... ./internal/core/... ./internal/hypermap/... \
		./internal/reducers/... ./internal/bag/... ./internal/pbfs/...
	$(GO) test -race -cpu 1,2,4 ./internal/sched/ ./internal/core/ .

# bench-check covers the benchmark/ module, which `go build ./...` and
# `go test ./...` at the root do not descend into although it pins part of
# this module's surface (benchmark/README.md): vet, the harness's own short
# tests, and a smoke run of every workload through the driver's entry point.
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test -short ./...
	bash benchmark/run.sh -smoke

# chaos runs the fault-injection sweep under the race detector: every
# compiled-in failpoint × CHAOS_SEEDS seeded schedules × both engines, the
# failure-containment regression tests (reduce-panic resource conservation,
# context-cancellation settlement), and the Close-vs-Run race; then the
# forced-steal leg: the equivalence, merge-matrix, hand-off and order suites
# and both sweeps again with forks' continuations run as stolen tasks
# (faultinject.SchedForceSteal), which is what reaches the hypermerge now
# that a short job wakes no thief (internal/bench's leg compares timings, so
# it runs without the race detector).  Widen with CHAOS_SEEDS=n.
chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 \
		-run 'TestChaosSweep$$|TestReducePanicConservesResources|TestRunContextCancelSettles' .
	$(GO) test -race -count=1 -run 'TestCloseRacingRun' ./internal/sched/
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 -timeout 20m -run 'ForcedSteals' \
		. ./internal/sched/ ./internal/core/ ./internal/reducers/
	$(GO) test -count=1 -run 'ForcedSteals' ./internal/bench/

# chaos-service runs the multi-tenant sweep under the race detector: N
# concurrent submitters × the service failpoints (admission, dispatch,
# deadline, drain) plus engine faults re-run under concurrent submission,
# asserting per-job containment and pool-wide quiescence after drain, with
# the Close-vs-Submit race alongside.  Widened seeds by default: the
# interesting interleavings here come from the seed × submitter product.
chaos-service:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 -timeout 20m \
		-run 'TestChaosServiceSweep' .
	$(GO) test -race -count=1 -run 'TestServiceCloseRacingSubmit' ./internal/sched/

# bench runs the scheduler microbenchmarks: the allocation-free fork fast
# path (expect 0 allocs/op on BenchmarkForkNoSteal), steal throughput, and
# the fib fork-stress test.
bench:
	$(GO) test -run NONE -bench 'ForkNoSteal|StealThroughput|ParallelFor|Fib' -benchmem ./internal/sched/

# bench-directory runs the sharded reducer-directory microbenchmarks at 8
# procs: concurrent register churn and growth, and the lookup fast path at
# small vs 1e5-live populations.
bench-directory:
	$(GO) test -run NONE -bench 'RegisterChurn|RegisterGrowth|MMLookup4Live|MMLookup100kLive' \
		-benchmem -benchtime=0.5s -cpu 8 ./internal/core/

# bench-typed runs the typed reducer update microbenchmarks: the
# generics-first Handle path (expect 0 allocs/op on both engines), including
# the four-reducer rotation.
bench-typed:
	$(GO) test -run NONE -bench 'TypedAdd|TypedList' \
		-benchmem -benchtime=0.5s ./internal/reducers/

# bench-spa runs the word-packed SPA storage benchmarks: the post-steal
# first lookup (arena vs heap view creation — expect 0 allocs/op on the
# arena path), the steady-state typed update (expect 0 allocs/op), and the
# hypermerge at 0%/50%/100% written views (elided slots must show zero
# reduce calls and zero pagepool round-trips at 0%).
bench-spa:
	$(GO) test -run NONE -bench 'FirstLookup|MergeWritten' \
		-benchmem -benchtime=0.5s ./internal/core/
	$(GO) test -run NONE -bench 'TypedAdd' \
		-benchmem -benchtime=0.5s ./internal/reducers/

# bench-lookup runs the steady-state typed-lookup benchmark against the raw
# per-worker []V array-index floor on both engines and records the numbers
# as a perf-trajectory artifact (BENCH_LOOKUP_OUT).  The acceptance bar for
# the devirtualized fast path is TypedLookupSteadyState within 1.5x of
# RawSliceIndexBaseline; -count=5 because single runs on shared machines
# are noisy (the diff tool aggregates by min).
BENCH_LOOKUP_OUT ?= BENCH_lookup.json
bench-lookup:
	@$(GO) test -run NONE -bench 'TypedLookupSteadyState|RawSliceIndexBaseline' \
		-benchmem -benchtime=0.5s -count=5 \
		./internal/reducers/ > $(BENCH_LOOKUP_OUT).txt 2>&1 \
		|| { cat $(BENCH_LOOKUP_OUT).txt; rm -f $(BENCH_LOOKUP_OUT).txt; exit 1; }
	@$(GO) run ./cmd/benchjson -out $(BENCH_LOOKUP_OUT) < $(BENCH_LOOKUP_OUT).txt
	@cat $(BENCH_LOOKUP_OUT).txt
	@rm -f $(BENCH_LOOKUP_OUT).txt

# bench-json runs the sched, core and typed-reducer microbenchmarks
# (fork/steal, lookup, merge pipeline, directory registration, typed update
# paths) plus the open-loop service-latency experiment and records them as a
# machine-readable perf-trajectory artifact.  Numbers are advisory — the
# target fails only on build or run errors, never on regressions.  The go
# test output goes through a file rather than a pipe so its exit status is
# checked (a plain pipe would let a broken benchmark build slip through with
# the converter's status).  The directory benchmarks run at -cpu 8 so the
# artifact records the concurrent-registration scaling.
bench-json:
	@$(GO) test -run NONE -bench 'ForkNoSteal|StealThroughput|Lookup|Merge' \
		-benchmem -benchtime=0.5s -count=3 \
		./internal/sched/ ./internal/core/ > $(BENCH_OUT).txt 2>&1 \
		|| { cat $(BENCH_OUT).txt; rm -f $(BENCH_OUT).txt; exit 1; }
	@$(GO) test -run NONE -bench 'RegisterChurn|RegisterGrowth' \
		-benchmem -benchtime=0.5s -count=3 -cpu 8 \
		./internal/core/ >> $(BENCH_OUT).txt 2>&1 \
		|| { cat $(BENCH_OUT).txt; rm -f $(BENCH_OUT).txt; exit 1; }
	@$(GO) test -run NONE -bench 'TypedAdd|TypedList|TypedLookupSteadyState|RawSliceIndexBaseline' \
		-benchmem -benchtime=0.5s -count=3 \
		./internal/reducers/ >> $(BENCH_OUT).txt 2>&1 \
		|| { cat $(BENCH_OUT).txt; rm -f $(BENCH_OUT).txt; exit 1; }
	@$(GO) run ./cmd/cilkbench -experiment service -quick \
		>> $(BENCH_OUT).txt 2>&1 \
		|| { cat $(BENCH_OUT).txt; rm -f $(BENCH_OUT).txt; exit 1; }
	@$(GO) run ./cmd/benchjson -out $(BENCH_OUT) < $(BENCH_OUT).txt
	@rm -f $(BENCH_OUT).txt

# bench-diff compares two committed perf-trajectory artifacts and fails on
# >10% ns/op regressions in the headline benchmarks (fork, steal, lookup,
# merge, first-lookup).  CI runs it as an advisory step; the committed
# BENCH_pr*.json trajectory is the record of truth.  Override the pair with
# BENCH_BASE/BENCH_OUT.
bench-diff:
	$(GO) run ./cmd/benchjson diff $(BENCH_BASE) $(BENCH_OUT)

# docs-check is the documentation lint: broken relative links in README.md
# and docs/, and undocumented exported identifiers in the public facade
# packages (the repo root and internal/reducers).
docs-check:
	$(GO) run ./cmd/docscheck -md README.md,docs -pkgs .,./internal/reducers

# fmt-check fails when any file is not gofmt-clean, printing the offenders.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: build fmt-check vet lint check-binaries inline-check docs-check test race bench-check
