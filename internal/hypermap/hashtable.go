package hypermap

import "repro/internal/spa"

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
// Entries are stored by value inside the chain nodes: one allocation per
// node, none per entry.  The entry stores the same single-word view
// representation the memory-mapped engine's SPA slots use (plus the owner
// stamp and an explicit written byte — see entry's doc comment).
type hashTable struct {
	buckets  []*hashEntry
	nbuckets uint64
	n        int
	sizeIdx  int
	// zero is lent to the read-only first lookups of the trace this table
	// belongs to, so each trace, nested ones included, has a block of its
	// own.
	zero spa.ZeroBlock
}

// hashEntry is one chained element.
type hashEntry struct {
	key  spa.Addr
	ent  entry
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

// len returns the number of stored entries.
func (t *hashTable) len() int { return t.n }

// lookup returns a pointer to the entry for key, or nil.  The pointer
// aliases the chain node, so callers may update the entry in place (the
// hypermerge's reduce-into-current and the lookup path's written-bit
// stamping both do).
func (t *hashTable) lookup(key spa.Addr) *entry {
	for e := t.buckets[t.hash(key)]; e != nil; e = e.next {
		if e.key == key {
			return &e.ent
		}
	}
	return nil
}

// probeHead returns the entry for key only when it sits at the head of its
// bucket chain, or nil.  Unlike lookup it never walks the chain, so it has
// no loop and the compiler inlines it into the engine's devirtualized
// lookup fast path; a hit is one hash (the baseline's characteristic
// modulo), one load and one compare.  Chains are short at steady state —
// the table grows at load factor 1 — and a below-head entry is still found
// by the outlined miss path's full lookup, so probeHead trades a rare
// second probe for an inlinable first one.
func (t *hashTable) probeHead(key spa.Addr) *entry {
	if e := t.buckets[t.hash(key)]; e != nil && e.key == key {
		return &e.ent
	}
	return nil
}

// insert adds an entry for key, which must not already be present, growing
// the table when the load factor reaches 1.
func (t *hashTable) insert(key spa.Addr, ent entry) {
	if t.n >= len(t.buckets) {
		t.grow()
	}
	b := t.hash(key)
	t.buckets[b] = &hashEntry{key: key, ent: ent, next: t.buckets[b]}
	t.n++
}

// remove deletes the entry for key, returning whether it was present.  The
// engine uses it when a lookup finds a stale entry at a recycled reducer
// address: the retired occupant's view is dropped before the live
// reducer's identity view is inserted.
func (t *hashTable) remove(key spa.Addr) bool {
	b := t.hash(key)
	for p := &t.buckets[b]; *p != nil; p = &(*p).next {
		if (*p).key == key {
			*p = (*p).next
			t.n--
			return true
		}
	}
	return false
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

// forEach calls fn for every (key, entry) pair; the entry pointer aliases
// the chain node.
func (t *hashTable) forEach(fn func(key spa.Addr, ent *entry)) {
	for _, e := range t.buckets {
		for ; e != nil; e = e.next {
			fn(e.key, &e.ent)
		}
	}
}
