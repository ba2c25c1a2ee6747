GO ?= go
CHAOS_SEEDS ?= 6
CILKVET ?= bin/cilkvet

.PHONY: build vet vet-unsafe lint cilkvet check-binaries inline-check test race bench-check chaos chaos-service docs-check fmt-check ci

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

# cilkvet builds the repo's own analysis suite (cmd/cilkvet): five
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
# greps -gcflags=-m and fails when any pinned decision is gone, or when a
# closure in internal/pbfs/pbfs.go escapes to the heap.
inline-check:
	@GO="$(GO)" sh scripts/inline_check.sh

test:
	$(GO) test ./...

# race runs the whole module under the race detector with 1, 2 and 4 Ps:
# the Chase–Lev deque's memory-ordering assumptions, both reducer engines,
# PBFS's plain-store/CAS claim on dist, and the park/wake protocol, which is
# barely exercised by a run with one P; a Session's caller is one of its
# workers, so how many Ps the callers and the pool share decides which of
# them ever steals.  Timing orderings skip their assertion under -race
# (the raceEnabled build-tag pairs).  Run it on every scheduler change.
race:
	$(GO) test -race -cpu 1,2,4 ./...

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
# context-cancellation settlement, a monoid that panics or returns nil in
# the root merge, a Reduce that reads another reducer of its engine while
# the root merge holds the engine's leftmost lock, a failed view transferal that must end its trace exactly
# once and leave the enclosing trace intact, a write through a read-only
# view's zero block that fails only the job, and only the trace, that made
# it, and a write through a read-only view of the trace's own that is
# merged like any other), and the Close-vs-Run race; then
# the forced-steal leg: the equivalence, merge-matrix, hand-off and order
# suites, both sweeps and the failed-transferal tests again with forks'
# continuations run as stolen tasks (faultinject.SchedForceSteal), which is
# what reaches the hypermerge now that a short job wakes no thief, and PBFS
# with a steal at every fork, so the root strand's take of each next frontier
# from its own view follows a hypermerge at every join, and read-your-writes
# across the zero block in stolen strands (TestForcedStealsReadYourWrites)
# (internal/bench's leg compares timings, so it runs without the race
# detector).  Widen with CHAOS_SEEDS=n.
chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 \
		-run 'TestChaosSweep$$|TestReducePanicConservesResources|TestRunContextCancelSettles|TestRootMergeReducePanic|TestReduceReadsLeftmostDuringRootMerge|TestNilViewMonoidNamedFailures|TestEndTracePanicEndsTraceOnce|TestEndTraceFailureRestoresOuterTrace|TestReadViewWriteTraps|TestReadViewWriteIsMerged|TestNestedTraceReadViewWriteTraps' \
		. ./internal/sched/ ./internal/core/
	$(GO) test -race -count=1 -run 'TestCloseRacingRun' ./internal/sched/
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 -timeout 20m -run 'ForcedSteals' \
		. ./internal/sched/ ./internal/core/ ./internal/reducers/ ./internal/pbfs/
	$(GO) test -count=1 -run 'ForcedSteals' ./internal/bench/

# chaos-service runs the multi-tenant sweep under the race detector: N
# concurrent submitters × the service failpoints (admission, dispatch,
# deadline, drain) plus engine faults re-run under concurrent submission,
# asserting per-job containment and pool-wide quiescence after drain, with
# the Close-vs-Submit race alongside, and the settle-before-deliver order
# (Stats read right after Wait, or from OnDone, counts the job settled)
# repeated at 1, 2 and 4 Ps.  Widened seeds by default: the interesting
# interleavings here come from the seed × submitter product.
chaos-service:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 -timeout 20m \
		-run 'TestChaosServiceSweep' .
	$(GO) test -race -count=1 -run 'TestServiceCloseRacingSubmit' ./internal/sched/
	$(GO) test -race -count=10 -cpu 1,2,4 \
		-run 'TestServiceSubmitConcurrent|TestServiceSettlesBeforeDelivery' ./internal/sched/

# docs-check is the documentation lint: broken relative links in README.md
# and docs/, and undocumented exported identifiers in the public facade
# packages (the repo root and internal/reducers) and the runtime packages
# under internal/ that they build on.
docs-check:
	$(GO) run ./cmd/docscheck -md README.md,docs -pkgs .,./internal/reducers,./internal/core,./internal/sched,./internal/hypermap,./internal/spa,./internal/pagepool,./internal/metrics,./internal/faultinject,./internal/pbfs,./internal/bag,./internal/graph

# fmt-check fails when any file is not gofmt-clean, printing the offenders.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: build fmt-check vet lint check-binaries inline-check docs-check test race bench-check
