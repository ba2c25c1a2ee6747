#!/bin/sh
# inline-check: pin the compiler's inlining decisions for the typed-lookup
# fast path, the first-lookup miss path and the fork path: Fork's one call
# into the fork body, the wake-gate test and the live-fork pop; and forbid
# the escape of a closure per fork in PBFS.
#
# The steady-state lookup contract (docs/ARCHITECTURE.md, "Lookup fast
# path") depends on the Go inliner flattening the hit shape at every layer:
# the slot probe and owner-stamp check into the memory-mapped engine's
# LookupWord, the bucket-head probe into the hypermap engine's LookupWord,
# and the worker-id/epoch accessors into the handle's View and ReadView.
# None of that is visible in a test — a regression (say, a helper growing
# past the 80-node inlining budget) silently turns a single-deref hit into
# a call chain.  This script greps the compiler's -gcflags=-m diagnostics
# for the exact decisions the fast path relies on and fails when any is
# gone.  The build cache replays diagnostics, so the check is stable across
# warm runs.
#
# Deliberately NOT asserted: `can inline (*Handle[go.shape.*]).View` — the
# generic View body cannot inline (the outlined miss call alone costs 57 of
# the 80-node budget; -gcflags=-m=2 prices View and ReadView at 110 each),
# so the steady state is one direct monomorphized call whose interior is
# fully flattened.  The dictionary wrappers for concrete
# instantiations do inline, and that is asserted.
set -u

GO=${GO:-go}

out=$("$GO" build -gcflags=-m \
	./internal/spa ./internal/sched ./internal/metrics ./internal/core \
	./internal/hypermap ./internal/reducers ./internal/pbfs 2>&1) || {
	printf '%s\n' "$out"
	echo "inline-check: build failed" >&2
	exit 1
}

fail=0

# require FILE-FRAGMENT DIAGNOSTIC: assert the -m output holds a line from
# a file matching FILE-FRAGMENT that contains DIAGNOSTIC verbatim.
require() {
	if ! printf '%s\n' "$out" | grep "$1" | grep -qF "$2"; then
		echo "inline-check: missing in $1: $2" >&2
		fail=1
	fi
}

# forbid FILE-FRAGMENT DIAGNOSTIC: assert no -m line from a file matching
# FILE-FRAGMENT contains DIAGNOSTIC.
forbid() {
	if printf '%s\n' "$out" | grep "$1" | grep -F "$2" >&2; then
		echo "inline-check: forbidden in $1: $2" >&2
		fail=1
	fi
}

# Layer 1: the SPA slot helpers themselves are inlinable.
require 'internal/spa/' 'can inline (*MapSet).Probe'
require 'internal/spa/' 'can inline Slot.FastHit'
require 'internal/spa/' 'can inline Slot.View'

# Layer 1 (baseline engine): the loop-free bucket-head probe is inlinable.
require 'internal/hypermap/hashtable.go' 'can inline (*hashTable).probeHead'

# Layer 1 (scheduler): the epoch and worker-id accessors are inlinable.
require 'internal/sched/context.go' 'can inline (*Context).ViewEpoch'
require 'internal/sched/context.go' 'can inline (*Context).WorkerID'

# Layer 1 (scheduler): the wake gate's test is a field compare inside the
# fork path's two functions, not a call — the fork body makes it after
# every left branch, pushTask at every empty→non-empty push.
require 'internal/sched/idle.go' 'can inline (*Worker).wakeGated'
require 'internal/sched/worker.go' 'inlining call to (*Worker).wakeGated'
require 'internal/sched/context.go' 'inlining call to (*Worker).wakeGated'

# Layer 1 (scheduler): Fork is a single call into the fork body it shares
# with ParallelFor's splits, so a caller pays no second call frame for it.
require 'internal/sched/context.go' 'can inline (*Context).Fork'

# Layer 1 (scheduler): a fork's live entry is the top of its worker's stack
# (forks nest), so removing it is a store and a reslice inside the fork body.  The
# deque's popBottom does not fit the budget (cost 131) and stays a call.
require 'internal/sched/worker.go' 'can inline (*Worker).popLiveFork'
require 'internal/sched/context.go' 'inlining call to (*Worker).popLiveFork'

# Layer 2: the memory-mapped engine's LookupWord hit shape is fully
# flattened — probe, owner-stamp check and view word all inline.
require 'internal/core/mm.go' 'inlining call to spa.(*MapSet).Probe'
require 'internal/core/mm.go' 'inlining call to spa.Slot.FastHit'
require 'internal/core/mm.go' 'inlining call to spa.Slot.View'

# Layer 2 (baseline engine): the hypermap LookupWord hit shape —
# bucket-head probe, hash included, inlines.
require 'internal/hypermap/hypermap.go' 'inlining call to (*hashTable).probeHead'
require 'internal/hypermap/hypermap.go' 'inlining call to (*hashTable).hash'

# Layer 2 (first lookup): the per-view miss path both engines share
# (Skeleton.LookupMiss and Views.newView in internal/core/skeleton.go)
# ticks its overhead tally, checks reducer validity and bumps the view
# epoch on a stale-view drop without a call — the tick and the bump are
# plain owner-only increments (the tick's timed half is outlined on
# purpose) and validity is one load of a flag on the reducer.  The cilkvet
# hotpath analyzer keeps locked instructions out of these functions; this
# keeps the calls out.  Each pin names the file that holds the code, so the
# two engines' former pins on one call are one pin now.
require 'internal/metrics/metrics.go' 'can inline (*Breakdown).Tick'
require 'internal/core/directory.go' 'can inline (*Directory).Valid'
require 'internal/core/skeleton.go' 'inlining call to metrics.(*Breakdown).Tick'
require 'internal/core/skeleton.go' 'inlining call to (*Directory).Valid'
require 'internal/core/skeleton.go' 'inlining call to sched.(*Worker).BumpViewEpoch'

# Layer 2 (merge): reducing a pair is the monoid's kernel call and a nil
# compare at the call site in the one per-pair decision (Views.reduce), not
# a call to a wrapper first.
require 'internal/core/core.go' 'can inline (*Reducer).ReduceViews'
require 'internal/core/skeleton.go' 'inlining call to (*Reducer).ReduceViews'

# Layer 3: the handle's View/ReadView hit checks use the inlined context
# accessors (no call, no worker-struct detour on the id), and the concrete
# dictionary wrappers callers bind to are themselves inlinable.
require 'internal/reducers/handle.go' 'inlining call to sched.(*Context).WorkerID'
require 'internal/reducers/handle.go' 'inlining call to sched.(*Context).ViewEpoch'
require 'internal/reducers/handle.go' 'can inline (*Handle[bool]).View'
require 'internal/reducers/handle.go' 'can inline (*Handle[bool]).ReadView'

# Application (PBFS): a layer is one range loop over the frontier's blocks,
# whose splits push pooled tasks; a closure per fork would escape to the
# heap through the task it is pushed as.  The leaf is a method value built
# once per search, which -m reports as a method value, not a func literal.
forbid 'internal/pbfs/pbfs.go' 'func literal escapes to heap'

if [ "$fail" -ne 0 ]; then
	echo "inline-check: a pinned inlining or escape decision no longer holds;" >&2
	echo "inline-check: relevant compiler output follows" >&2
	printf '%s\n' "$out" | grep -E 'LookupWord|Probe|FastHit|probeHead|ViewEpoch|WorkerID|Handle|Tick|Valid|wakeGated|popLiveFork|ReduceViews|Fork' >&2 || true
	exit 1
fi
echo "inline-check: all pinned inlining and escape decisions hold"
