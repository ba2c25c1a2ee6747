// Package spa implements the sparse-accumulator (SPA) map that Cilk-M uses
// to organise a worker's local views (Section 6 of the paper).
//
// A SPA map occupies one 4 KB page of the worker's TLMM region — a Map is
// exactly 4096 bytes, checked at compile time — and holds
//
//   - a view array of 248 elements, each a pair of 8-byte machine words
//     (local view pointer, owner stamp),
//   - a log array of 120 one-byte indices naming the valid elements,
//   - a 4-byte count of valid elements, and
//   - a 4-byte count of log entries, negative once the log has overflowed.
//
// Empty elements are represented by a nil pair.  Lookups are constant time
// (index the view array), and sequencing through the valid views is linear
// in the number of views by walking the log.  If more views are inserted
// than the log can describe, the log is abandoned and sequencing falls back
// to scanning the whole view array; the insertion cost amortises the scan.
//
// # Word packing
//
// A slot really is two machine words — 16 bytes, the paper's layout — not
// two Go interfaces (32 bytes).  The first word is the view itself: the *V
// the reducer's monoid allocated, held as an unsafe.Pointer (see
// internal/core/word.go for the safety argument).  The second
// word is the owner stamp: a pointer to the owning reducer, whose low three
// bits — always zero in a real pointer — carry per-slot flags (FlagWritten
// is defined but no engine sets or reads it):
//
//   - FlagArena marks that the view's memory was carved from a runtime
//     view arena (or recycled through one) and may be returned to an arena
//     free list when the view dies.
//
// The tagged stamp is produced with unsafe.Add, so it remains an interior
// pointer into the owning reducer: the garbage collector keeps the reducer
// alive through it, and `go vet -unsafeptr` accepts every conversion.
package spa
