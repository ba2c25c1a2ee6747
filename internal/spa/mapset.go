package spa

import (
	"fmt"
	"unsafe"
)

// Addr is a global view-slot address: it identifies one 16-byte slot across
// a sequence of SPA map pages.  It plays the role of the paper's tlmm_addr,
// which is the same for every worker throughout the life span of a reducer.
type Addr int

// Page returns the SPA page index of the address.
func (a Addr) Page() int { return int(a) / SlotsPerMap }

// Slot returns the in-page slot index of the address.
func (a Addr) Slot() int { return int(a) % SlotsPerMap }

// MakeAddr builds an Addr from a page index and an in-page slot index.
func MakeAddr(page, slot int) Addr { return Addr(page*SlotsPerMap + slot) }

// MapSet is an ordered collection of SPA map pages addressed by Addr.  A
// worker's private TLMM reducer area is one MapSet; the public SPA maps
// produced by view transferal are another.
type MapSet struct {
	pages []*Map
	// Zero is lent to the read-only first lookups of the trace whose
	// private maps these are, so each trace, nested ones included, has a
	// block of its own.
	Zero ZeroBlock
}

// NewMapSet returns an empty map set.
func NewMapSet() *MapSet { return &MapSet{} }

// Pages returns the number of SPA pages in the set.
func (ms *MapSet) Pages() int { return len(ms.pages) }

// Page returns the i-th SPA page, or nil if it does not exist.
func (ms *MapSet) Page(i int) *Map {
	if i < 0 || i >= len(ms.pages) {
		return nil
	}
	return ms.pages[i]
}

// Len returns the total number of valid views across all pages.
func (ms *MapSet) Len() int {
	n := 0
	for _, p := range ms.pages {
		n += p.Len()
	}
	return n
}

// IsEmpty reports whether no page holds any view.
func (ms *MapSet) IsEmpty() bool { return ms.Len() == 0 }

// EnsurePage grows the set until page index i exists and returns it.
func (ms *MapSet) EnsurePage(i int) *Map {
	for len(ms.pages) <= i {
		ms.pages = append(ms.pages, New())
	}
	return ms.pages[i]
}

// Get returns the view word at addr, or nil if the page does not exist or
// the slot is empty.  This is the lookup fast path at MapSet granularity.
func (ms *MapSet) Get(addr Addr) unsafe.Pointer {
	pi := addr.Page()
	if pi < 0 || pi >= len(ms.pages) {
		return nil
	}
	return ms.pages[pi].Get(addr.Slot())
}

// SlotAt returns the full slot at addr, or the zero Slot if the page does
// not exist.  Reducer engines use it where Get's view word alone is not
// enough: the slot's second word carries the owner stamp that guards
// against a recycled address serving a stale view, plus the per-slot flags.
func (ms *MapSet) SlotAt(addr Addr) Slot {
	pi := addr.Page()
	if pi < 0 || pi >= len(ms.pages) {
		return Slot{}
	}
	return ms.pages[pi].SlotAt(addr.Slot())
}

// Probe returns the slot at page index pi, slot index si, or the zero Slot
// when the page does not exist.  It is SlotAt with the address already
// decomposed: reducers precompute their (page, slot) pair at registration
// (SlotsPerMap is not a power of two, so Addr.Page and Addr.Slot each cost
// an integer division), leaving the lookup fast path one bounds check and
// two indexed loads.  si must be in [0, SlotsPerMap); Probe is small enough
// for the compiler to inline into the engines' lookup fast paths.
func (ms *MapSet) Probe(pi, si int) Slot {
	if uint(pi) >= uint(len(ms.pages)) {
		return Slot{}
	}
	return ms.pages[pi].views[si]
}

// Insert stores a (view, owner) pair with flags at addr, growing the set as
// needed.
func (ms *MapSet) Insert(addr Addr, view, owner unsafe.Pointer, flags uintptr) error {
	if addr < 0 {
		return fmt.Errorf("%w: %d", ErrSlotOutOfRange, addr)
	}
	return ms.EnsurePage(addr.Page()).Insert(addr.Slot(), view, owner, flags)
}

// InsertSlot installs a pre-packed slot at addr, growing the set as needed.
// Merges use it to move deposited slots wholesale, flags included.
func (ms *MapSet) InsertSlot(addr Addr, s Slot) error {
	if addr < 0 || s.IsEmpty() {
		return fmt.Errorf("%w: %d", ErrSlotOutOfRange, addr)
	}
	return ms.EnsurePage(addr.Page()).insertSlot(addr.Slot(), s)
}

// Update replaces the view word and flags at an occupied addr.
func (ms *MapSet) Update(addr Addr, view unsafe.Pointer, flags uintptr) error {
	pi := addr.Page()
	if pi < 0 || pi >= len(ms.pages) {
		return fmt.Errorf("%w: %d", ErrSlotEmpty, addr)
	}
	return ms.pages[pi].Update(addr.Slot(), view, flags)
}

// Remove clears the slot at addr and returns its previous contents.
func (ms *MapSet) Remove(addr Addr) (Slot, error) {
	pi := addr.Page()
	if pi < 0 || pi >= len(ms.pages) {
		return Slot{}, fmt.Errorf("%w: %d", ErrSlotEmpty, addr)
	}
	return ms.pages[pi].Remove(addr.Slot())
}

// TransferTo moves every view from ms into dst, page by page, leaving ms
// empty.  It returns the number of views moved.  Kept, like Map.TransferTo,
// for benchmark/probes.go (spa.transfer_ns_per_view).
func (ms *MapSet) TransferTo(dst *MapSet) (int, error) {
	moved := 0
	for pi, p := range ms.pages {
		if p.IsEmpty() {
			continue
		}
		n, err := p.TransferTo(dst.EnsurePage(pi))
		moved += n
		if err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// OccupiedPageSpan returns the number of leading pages the set would need
// to receive every view currently held here: one past the highest non-empty
// page index, or 0 when the set is empty.  The batched view-transferal path
// uses it to size one bulk pagepool fetch for the whole deposit.
func (ms *MapSet) OccupiedPageSpan() int {
	for pi := len(ms.pages) - 1; pi >= 0; pi-- {
		if !ms.pages[pi].IsEmpty() {
			return pi + 1
		}
	}
	return 0
}

// SwapPages exchanges the set's leading len(pages) pages with the pages in
// the slice, element by element: afterwards pages holds what the set held
// and the set holds what the caller passed.  It is view transferal as the
// paper's remapping strategy — the private pages, views in place, become
// the public deposit and fresh empty pages take their indices — at the cost
// of one pointer swap per page.  The set must have at least len(pages)
// pages.
func (ms *MapSet) SwapPages(pages []*Map) {
	for i, p := range pages {
		pages[i], ms.pages[i] = ms.pages[i], p
	}
}

// Reset empties every page in place, keeping the pages for reuse.
func (ms *MapSet) Reset() {
	for _, p := range ms.pages {
		p.Reset()
	}
}
