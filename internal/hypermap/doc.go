// Package hypermap implements the baseline reducer mechanism used by
// Cilk++ and Intel Cilk Plus, against which the paper compares its
// memory-mapping mechanism: each execution context owns a hash table (a
// "hypermap") mapping reducers to their local views.
//
// What this package reproduces of the Cilk Plus baseline is the lookup
// structure: a chained hash table sized through a progression of prime-like
// bucket counts, hashing the reducer's address modulo the bucket count and
// rehashing into the next size when full.  Every reducer access performs a
// lookup in it, and a hypermerge walks one table performing a lookup in the
// other per element, which is where the paper finds Cilk Plus spending most
// of its reduce overhead.  View transferal hands the trace's table over
// whole.
//
// Everything else is the core.Skeleton the memory-mapped engine embeds too:
// the directory, the lookup miss (a read-only touch of a reducer whose
// identity is the zero value reads the trace's zero block), identity views
// carved from the same per-worker arenas, the trace lifecycle with its
// spares stack, deposits through a page pool whose pages here are whole
// tables (reused, chain nodes and all, rather than built per trace), the
// merge decisions, the root merge, the counts and the metrics.Source, so
// figure comparisons and scrape endpoints measure the two lookup
// structures and nothing else.
package hypermap
