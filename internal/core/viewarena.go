package core

import (
	"fmt"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/spa"
)

// This file implements the per-worker view arena: a size-classed bump
// allocator with free lists that backs identity-view creation for monoids
// whose views are fixed-size and pointer-free (NewMonoid decides, from the
// view type).
//
// The paper amortises view bookkeeping against steals; what remains of the
// post-steal lookup cost in this model is one heap allocation per identity
// view.  The arena removes it: lookupSlow carves the view out of the
// worker's arena, and views that the hypermerge folds away — the
// non-surviving side of each reduce pair and dropped stale views — are
// pushed back onto a free list, so the steady-state steal→lookup→merge
// cycle allocates nothing.
//
// Ownership: an arena belongs to one worker and is touched only from that
// worker's goroutine (lookupSlow, the abort path's drops and the
// hypermerge's frees all run there).  Blocks are not returned to the chunk
// they were carved from: a block freed by the merging worker goes on the
// merging worker's free list, which is safe because every block of one class is
// interchangeable and the unsafe.Pointer references on free lists and in
// SPA slots keep the backing chunks alive (interior pointers pin Go heap
// objects).
//
// GC safety: arenas are only used for pointer-free view types, so the
// collector never needs to see pointers inside a chunk; the chunks
// themselves are ordinary []uint64 allocations kept alive by the block
// pointers carved from them.

const (
	// arenaMinClassBytes is the smallest size class (one machine word).
	arenaMinClassBytes = 8
	// arenaMaxClassBytes is the largest view an arena will place; bigger
	// views fall back to the monoid's heap Identity.
	arenaMaxClassBytes = 128
	// arenaNumClasses covers 8, 16, 32, 64 and 128 bytes.
	arenaNumClasses = 5
	// arenaChunkBytes is the size of one bump chunk (per class).
	arenaChunkBytes = 8192
)

// The zero block a read-only first lookup is lent (spa.ZeroBlock) must
// cover every arena-eligible view.
var _ [spa.ZeroBlockBytes - arenaMaxClassBytes]struct{}

// ArenaClassFor returns the size class for a view of the given size, or -1
// when the size is outside the arena's range.  Classes are powers of two
// from 8 to 128 bytes; sizes round up to the next class.
func ArenaClassFor(size uintptr) int {
	if size > arenaMaxClassBytes {
		return -1
	}
	c, bytes := 0, uintptr(arenaMinClassBytes)
	for bytes < size {
		bytes <<= 1
		c++
	}
	return c
}

// arenaClassBytes returns the block size of a class.
func arenaClassBytes(class int) uintptr {
	return arenaMinClassBytes << uint(class)
}

// viewArena is one worker's size-classed view allocator.  Everything in it
// is owner-goroutine-only.  alloc and free count into n, the arena part of
// the worker's metrics.Tally, which is flushed with the rest of it.
type viewArena struct {
	classes [arenaNumClasses]arenaClass
}

// arenaClass is one size class: a free list of recycled blocks and the
// current bump chunk.
type arenaClass struct {
	free  []unsafe.Pointer
	chunk []uint64
	off   int // next free word index within chunk
}

// alloc carves one block of the given class: free list first, then the bump
// chunk, then a fresh chunk.  Blocks are 8-byte aligned (chunks are
// []uint64) and sized to the class, so any block can later serve any view
// of the same class.
//
//cilkvet:hotpath
func (a *viewArena) alloc(class int, n *metrics.ArenaStats) unsafe.Pointer {
	if class < 0 || class >= arenaNumClasses {
		panic(fmt.Sprintf("core: view arena class %d out of range", class))
	}
	n.Allocs++
	c := &a.classes[class]
	if k := len(c.free); k > 0 {
		p := c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
		n.FreeHits++
		return p
	}
	words := int(arenaClassBytes(class) / 8)
	if c.off+words > len(c.chunk) {
		c.chunk = make([]uint64, arenaChunkBytes/8)
		c.off = 0
		n.ChunkAllocs++
	}
	p := unsafe.Pointer(&c.chunk[c.off])
	c.off += words
	return p
}

// free returns a dead block to the class free list.  The block must be a
// pointer previously handed out for this class by some worker's arena
// (slots record this in their FlagArena bit), so the memory is at least
// class-size bytes and 8-byte aligned.
//
//cilkvet:hotpath
func (a *viewArena) free(class int, p unsafe.Pointer, n *metrics.ArenaStats) {
	if class < 0 || class >= arenaNumClasses || p == nil {
		return
	}
	n.Frees++
	c := &a.classes[class]
	c.free = append(c.free, p)
}
