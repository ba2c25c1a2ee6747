package spa

import (
	"testing"
	"unsafe"
)

// TestZeroBlockReclaim pins the zero block's loan cycle: Lend hands out an
// 8-byte-aligned word and marks the block lent, Reclaim reports a write
// through it only while lent and leaves the block zero and unlent either
// way, and a block never lent is not inspected.
func TestZeroBlockReclaim(t *testing.T) {
	var b ZeroBlock
	if b.lent || b.Reclaim() {
		t.Fatal("a fresh block reads lent or written")
	}
	p := b.Lend()
	if uintptr(p)%8 != 0 {
		t.Fatalf("lent word %p is not 8-byte aligned", p)
	}
	if !b.lent {
		t.Fatal("Lend did not mark the block lent")
	}
	if b.Reclaim() || b.lent {
		t.Fatal("a clean loan reclaimed as written, or stayed lent")
	}
	for _, off := range []uintptr{0, ZeroBlockBytes - 1} {
		p = b.Lend()
		*(*byte)(unsafe.Add(p, off)) = 1
		if !b.Reclaim() {
			t.Fatalf("a write at byte %d went unreported", off)
		}
		if b.lent || b.words != ([ZeroBlockBytes / 8]uint64{}) {
			t.Fatalf("after reclaiming a write at byte %d the block is lent or dirty", off)
		}
	}
	// Outside a loan the block is not inspected: the check costs one flag
	// test when the trace lent nothing.
	b.words[3] = 1
	if b.Reclaim() {
		t.Fatal("an unlent block was inspected")
	}
}
