package spa

import "unsafe"

// ZeroBlockBytes is the length of a ZeroBlock: at least the largest view a
// reducer engine places in its view arenas (internal/core checks that at
// compile time), so the block reads as the zero value of every such view.
const ZeroBlockBytes = 128

// ZeroBlock is one trace's shared read-only identity, the reducer runtime's
// counterpart of an operating system's zero page.  A read-only first lookup
// of a reducer whose identity is all zero bytes is served the block's
// address instead of a view of its own: nothing is created, inserted or
// merged later, and the first mutable access then creates the real view.
// Every such reducer the trace reads shares the one block.
//
// A write through the lent address is a program error.  Reclaim, called
// when the owning trace ends, detects it and restores the block.  The block
// is owner-goroutine only, like the map set or hypermap that holds it.
type ZeroBlock struct {
	words [ZeroBlockBytes / 8]uint64
	// lent records that the block was handed out since the last Reclaim.
	lent bool
}

// Lend marks the block lent and returns its address as a view word.  The
// word is 8-byte aligned and ZeroBlockBytes long.
func (b *ZeroBlock) Lend() unsafe.Pointer {
	b.lent = true
	return unsafe.Pointer(&b.words)
}

// Lent reports whether the block was handed out since the last Reclaim.
func (b *ZeroBlock) Lent() bool { return b.lent }

// Reclaim ends the block's loan for the trace that owns it and reports
// whether anything wrote through a lent address meanwhile.  A written block
// is zeroed again, so the next trace is lent a clean one either way.
func (b *ZeroBlock) Reclaim() (written bool) {
	if !b.lent {
		return false
	}
	b.lent = false
	if b.words == ([ZeroBlockBytes / 8]uint64{}) {
		return false
	}
	b.words = [ZeroBlockBytes / 8]uint64{}
	return true
}
