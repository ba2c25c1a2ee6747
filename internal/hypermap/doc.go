// Package hypermap implements the baseline reducer mechanism used by
// Cilk++ and Intel Cilk Plus, against which the paper compares its
// memory-mapping mechanism: each execution context owns a hash table (a
// "hypermap") mapping reducers to their local views.
//
// Every reducer access performs a hash-table lookup keyed by the reducer's
// identity.  When a stolen computation first touches a reducer, an identity
// view is created lazily and inserted into the hypermap (a read-only touch
// of a reducer whose identity is the zero value reads the trace's zero
// block instead, as on the memory-mapped engine).  View transferal
// is cheap — the hypermap pointer itself is deposited — but lookups carry
// the full hash-table cost and hypermerges walk one table performing a
// lookup in the other per element, which is where the paper finds Cilk Plus
// spending most of its reduce overhead.
//
// The engine embeds core.Base, as the memory-mapped mechanism does: the
// same reducer directory, runtime binding and counts, counted at the same
// points and exported through the same metrics.Source (its arena and
// bulk-page series read 0), so figure comparisons and scrape endpoints
// treat both mechanisms uniformly.
package hypermap
