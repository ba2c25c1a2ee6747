// Package core implements reducer hyperobjects and, in particular, the
// paper's primary contribution: the memory-mapping reducer mechanism that
// Cilk-M uses in place of Cilk Plus's hypermaps.
//
// A reducer is defined by an algebraic monoid (T, ⊗, e).  During parallel
// execution each worker operates on its own local view of the reducer; the
// runtime creates identity views lazily when a stolen computation first
// touches a reducer — for a read-only touch of a reducer whose identity is
// the zero value, not even then: it reads the trace's shared zero block
// until its first write — transfers views out when a stolen branch completes,
// and reduces ("hypermerges") view sets back together in serial order at
// joins, so that the final value equals the value a serial execution would
// produce.
//
// The memory-mapping mechanism (type MM) answers the paper's four design
// questions as follows:
//
//  1. Operating-system support: each worker owns a TLMM region in which
//     the same virtual address resolves to that worker's own SPA pages —
//     here the worker's private SPA map set.  With ModelAddressSpace the
//     engine also models the kernel's part as the engine sees it: a
//     per-worker bitmap of mapped SPA pages, set on first touch, and a
//     growth step that can fail.
//  2. Thread-local indirection: the TLMM region holds only pointers to
//     views; the views themselves live on the ordinary shared heap.
//  3. View organisation: pointers are arranged in SPA map pages
//     (package spa), giving constant-time lookup and linear-time
//     sequencing.
//  4. View transferal: on completion of a stolen branch the worker hands
//     its private SPA pages over as the public deposit and takes empty
//     ones from a Hoard-style pool (package pagepool) in their place — the
//     paper's remapping strategy, which here is a pointer swap per page
//     where the paper's kernel crossing made copying the slots cheaper.
//
// A view is one machine word from the monoid's Identity to its Reduce: a
// Monoid is a concrete value only NewMonoid builds, closing a typed monoid
// over view words, and both engines call it on the words their slots hold
// (word.go).
//
// Around that mechanism the package grows the runtime pieces a resident
// engine needs: a one-lock reducer directory (type Directory),
// per-worker size-classed view arenas that recycle identity views through
// the merge, and a hypermerge that is one walk over the deposit's occupied
// slots, reducing each matched pair in place on the worker that owns the
// join.  What is not mechanism is written once, for MM and the hypermap
// baseline alike: Base (registration, the one runtime the engine serves
// and the counts) and Skeleton (the lookup miss, view creation, the trace
// lifecycle, deposits through a page pool, the merge decisions, the root
// merge and Quiescent), around a view store each engine brings (Store).
// Every event either engine counts goes into a worker's metrics.Tally,
// flushed into the Base's one metrics.Totals, and the Skeleton implements
// metrics.Source over it, so every count is exportable on a scrape endpoint
// the same way for both; see docs/OBSERVABILITY.md at the repository root.
//
// An Engine is the scheduler's reducer mechanism (sched.ReducerRuntime),
// root merge and quiescence check included, so the runtime settles every
// root through it and a Session only forwards to the runtime.
package core
