// Package hypermap implements the baseline reducer mechanism used by
// Cilk++ and Intel Cilk Plus, against which the paper compares its
// memory-mapping mechanism: each execution context owns a hash table (a
// "hypermap") mapping reducers to their local views.
//
// Every reducer access performs a hash-table lookup keyed by the reducer's
// identity.  When a stolen computation first touches a reducer, an identity
// view is created lazily and inserted into the hypermap.  View transferal
// is cheap — the hypermap pointer itself is deposited — but lookups carry
// the full hash-table cost and hypermerges walk one table performing a
// lookup in the other per element, which is where the paper finds Cilk Plus
// spending most of its reduce overhead.
//
// The engine shares the reducer directory with the memory-mapped
// mechanism and implements metrics.Source for the subset of runtime
// signals it tracks (identity elisions, lookup counters, directory
// statistics), so figure comparisons and scrape endpoints treat both
// mechanisms uniformly.
package hypermap
