package hypermap

import (
	"repro/internal/core"
	"repro/internal/spa"
)

// hashTable is a chained hash table mapping reducer addresses to view
// entries.  It reproduces the structure of the hypermaps in the open-source
// Cilk Plus runtime (reducer_impl.cpp) rather than relying on Go's built-in
// map, so that the measured lookup cost has the same character as the
// baseline the paper compares against:
//
//   - the table is sized from a fixed progression of odd (prime-like)
//     bucket counts,
//   - the hash reduces the reducer's address modulo the bucket count (an
//     integer division on every lookup),
//   - collisions chain within a bucket, and
//   - exceeding the load factor triggers a rehash into the next size (the
//     "hash-table expansion" the paper's Figure 6 discussion calls out).
//
// What the table holds is shared with the memory-mapped engine rather than
// the baseline's: each entry is an spa.Slot — the view word and the owner
// stamp, whose flag bits record an arena-carved view — and the views come
// from the same per-worker arenas.  A table is also a deposit page: view
// transferal hands the trace's table over whole and takes an empty one from
// the engine's page pool, and every walk that empties a table keeps its
// chain nodes for its next inserts, so a table in steady use allocates
// neither nodes nor buckets.
type hashTable struct {
	buckets  []*hashEntry
	nbuckets uint64
	n        int
	sizeIdx  int
	// free holds the chain nodes the table's walks and removes took out,
	// reused by its next inserts.
	free *hashEntry
}

// hashEntry is one chained element.
type hashEntry struct {
	key  spa.Addr
	slot spa.Slot
	next *hashEntry
}

// bucketSizes is the progression of bucket counts, mirroring the small
// prime-like sizes the Cilk Plus runtime grows its hypermaps through.
var bucketSizes = []int{17, 37, 79, 163, 331, 673, 1361, 2729, 5471, 10949, 21911, 43853, 87719, 175447}

// newHashTable creates an empty table at the smallest size; like the Cilk
// Plus runtime's, it starts small and grows.
func newHashTable() *hashTable {
	return &hashTable{
		buckets:  make([]*hashEntry, bucketSizes[0]),
		nbuckets: uint64(bucketSizes[0]),
	}
}

// hash reduces the reducer address (in the real runtime, the reducer's
// pointer shifted past its alignment bits) modulo the bucket count.
func (t *hashTable) hash(key spa.Addr) uint64 {
	return (uint64(key) + 0x9E3779B9) % t.nbuckets
}

// Len returns the number of stored entries.
func (t *hashTable) Len() int { return t.n }

// lookup returns the chain node for key, or nil.  Callers may update the
// node's slot in place (the hypermerge's reduce-into-current does).
func (t *hashTable) lookup(key spa.Addr) *hashEntry {
	for e := t.buckets[t.hash(key)]; e != nil; e = e.next {
		if e.key == key {
			return e
		}
	}
	return nil
}

// find returns the entry for key, or the zero Slot: the full chain walk.
func (t *hashTable) find(key spa.Addr) spa.Slot {
	if e := t.lookup(key); e != nil {
		return e.slot
	}
	return spa.Slot{}
}

// probeHead returns the entry for key only when it sits at the head of its
// bucket chain, or the zero Slot.  Unlike lookup it never walks the chain,
// so it has no loop and the compiler inlines it into the engine's
// devirtualized lookup fast path; a hit is one hash (the baseline's
// characteristic modulo), one load and one compare.  Chains are short at
// steady state — the table grows at load factor 1 — and a below-head entry
// is still found by the outlined miss path's full lookup, so probeHead
// trades a rare second probe for an inlinable first one.
func (t *hashTable) probeHead(key spa.Addr) spa.Slot {
	if e := t.buckets[t.hash(key)]; e != nil && e.key == key {
		return e.slot
	}
	return spa.Slot{}
}

// insert adds an entry for key, which must not already be present, growing
// the table when the load factor reaches 1.
func (t *hashTable) insert(key spa.Addr, s spa.Slot) {
	e := t.free
	if e != nil {
		t.free = e.next
	} else {
		e = &hashEntry{}
	}
	e.key, e.slot = key, s
	t.link(e)
}

// link chains node e, whose key must not already be present, into the
// table.
func (t *hashTable) link(e *hashEntry) {
	if t.n >= len(t.buckets) {
		t.grow()
	}
	b := t.hash(e.key)
	e.next = t.buckets[b]
	t.buckets[b] = e
	t.n++
}

// recycle keeps a node taken out of the table for its next insert; the
// node drops its slot, so it pins no dead view.
func (t *hashTable) recycle(e *hashEntry) {
	e.slot = spa.Slot{}
	e.next = t.free
	t.free = e
}

// remove deletes the entry for key, if present.  The engine uses it when a
// lookup finds a stale entry at a recycled reducer address: the retired
// occupant's view is dropped before the live reducer's identity view is
// inserted.
func (t *hashTable) remove(key spa.Addr) {
	for p := &t.buckets[t.hash(key)]; *p != nil; p = &(*p).next {
		if e := *p; e.key == key {
			*p = e.next
			t.n--
			t.recycle(e)
			return
		}
	}
}

// grow moves to the next bucket-count in the progression and rehashes every
// entry.
func (t *hashTable) grow() {
	if t.sizeIdx+1 < len(bucketSizes) {
		t.sizeIdx++
	}
	old := t.buckets
	t.buckets = make([]*hashEntry, bucketSizes[t.sizeIdx])
	t.nbuckets = uint64(len(t.buckets))
	for _, e := range old {
		for e != nil {
			next := e.next
			b := t.hash(e.key)
			e.next = t.buckets[b]
			t.buckets[b] = e
			e = next
		}
	}
}

// release takes every entry out of the table and settles it through v, one
// bucket chain at a time, stopping at the last entry.
func (t *hashTable) release(v *core.Views) {
	for b := 0; t.n > 0; b++ {
		for e := t.buckets[b]; e != nil; e = t.buckets[b] {
			t.buckets[b] = e.next
			t.n--
			s := e.slot
			t.recycle(e)
			v.Settle(s)
		}
	}
}

// releaseTables is the engine's deposit walk (core.Skeleton's release).
func releaseTables(v *core.Views, pages []*hashTable) {
	for _, t := range pages {
		t.release(v)
	}
}
