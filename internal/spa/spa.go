package spa

import (
	"errors"
	"fmt"
	"unsafe"
)

// Layout constants from the paper: a 2:1 ratio between the view array and
// the log array within one 4 KB page.
const (
	// pageBytes is the size of one page of the worker's TLMM region, which
	// one SPA map fills exactly.
	pageBytes = 4096
	// SlotsPerMap is the number of view slots in one SPA map page.
	SlotsPerMap = 248
	// LogCapacity is the number of one-byte indices in the log array.
	LogCapacity = 120
	// SlotBytes is the in-page size of one view slot (two 8-byte words).
	SlotBytes = 16
)

// Per-slot flags, carried in the low bits of the owner stamp.
const (
	// FlagWritten is a flag bit no engine sets or reads.  It stays a member
	// of FlagMask, and so a legal flag to pack, because benchmark/probes.go
	// passes it.
	FlagWritten uintptr = 1 << 0
	// FlagArena marks a view whose memory may be recycled through a view
	// arena when the view dies.
	FlagArena uintptr = 1 << 1

	// FlagMask covers every flag bit.  Owner stamps are at least 8-byte
	// aligned, so the flag bits never collide with address bits.
	FlagMask uintptr = FlagWritten | FlagArena
)

// Compile-time checks that a map is exactly one page
// (248*16 + 120 + 4 + 4 = 4096) and that a slot really is two words.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(Map{})-pageBytes]
	_ = [1]struct{}{}[unsafe.Sizeof(Slot{})-SlotBytes]
)

// Errors returned by SPA maps.
var (
	ErrSlotOutOfRange = errors.New("spa: slot index out of range")
	ErrSlotOccupied   = errors.New("spa: slot already holds a view")
	ErrSlotEmpty      = errors.New("spa: slot holds no view")
)

// Slot is one element of the view array: two packed machine words.  The
// first is the view word (never nil in an occupied slot); the second is the
// owner stamp — a pointer to the owning reducer tagged with the slot flags
// in its low bits.  In the paper the second word is the monoid pointer; the
// engines here store the owning reducer handle (which carries the monoid)
// so that a recycled slot address can be detected by comparing the stamp
// against the reducer being looked up.  Both words are nil when the slot is
// empty; the runtime maintains the invariant that they are nil or non-nil
// together.
type Slot struct {
	view  unsafe.Pointer
	owner unsafe.Pointer
}

// MakeSlot packs a slot from a view word, an untagged owner stamp and flag
// bits.  It is exported for tests and engine code that moves slots between
// maps wholesale.
func MakeSlot(view, owner unsafe.Pointer, flags uintptr) Slot {
	return Slot{view: view, owner: tagOwner(owner, flags&FlagMask)}
}

// tagOwner folds flag bits into an owner stamp.  unsafe.Add keeps the
// result an interior pointer into the owner allocation, so the GC still
// pins the owner through the tagged word.
func tagOwner(owner unsafe.Pointer, flags uintptr) unsafe.Pointer {
	return unsafe.Add(owner, flags)
}

// untagOwner strips the flag bits from a tagged stamp.
func untagOwner(tagged unsafe.Pointer) unsafe.Pointer {
	return unsafe.Add(tagged, -int(uintptr(tagged)&FlagMask))
}

// IsEmpty reports whether the slot holds no view.
func (s Slot) IsEmpty() bool { return s.view == nil }

// View returns the slot's view word (nil when the slot is empty).
func (s Slot) View() unsafe.Pointer { return s.view }

// Owner returns the slot's untagged owner stamp (nil when empty).
func (s Slot) Owner() unsafe.Pointer {
	if s.owner == nil {
		return nil
	}
	return untagOwner(s.owner)
}

// Flags returns the slot's flag bits.
func (s Slot) Flags() uintptr { return uintptr(s.owner) & FlagMask }

// FastHit reports whether the slot serves a lookup by owner with no
// slow-path work at all: the slot is occupied and stamped by owner.  The
// whole test is one masked compare on the packed stamp word — an empty slot
// has a nil stamp and can never equal a real owner pointer — so it inlines
// into the engines' devirtualized lookup fast paths.  A read-only and a
// mutable access hit alike; the unused second argument stays because
// benchmark/probes.go passes it.
func (s Slot) FastHit(owner unsafe.Pointer, _ bool) bool {
	return uintptr(s.owner)&^FlagMask == uintptr(owner)
}

// Arena reports whether the slot's view memory is arena-recyclable.
func (s Slot) Arena() bool { return uintptr(s.owner)&FlagArena != 0 }

// Map is one SPA map page.  Its address is its identity: lookup fast
// paths alias slots by page pointer, so a by-value copy would fork the
// view array and double-free its arena views.
//
//cilkvet:nocopy
type Map struct {
	views [SlotsPerMap]Slot
	log   [LogCapacity]uint8
	// nviews is the number of valid elements in the view array.
	nviews int32
	// nlogs is the number of entries in the log array, or logOverflowed
	// once the log has overflowed: it then stops tracking insertions, and
	// sequencing must scan the whole view array.
	nlogs int32
}

// logOverflowed is the nlogs of a map whose log has overflowed since the map
// was last empty.
const logOverflowed = -1

// New returns an empty SPA map.
func New() *Map {
	return &Map{}
}

// Reset returns the map to the empty state: all slots nil, counts zero, log
// tracking re-enabled.  The paper's invariant is that only empty SPA maps
// are recycled.  The engine empties a page slot by slot instead, and
// Remove rewinds the log when the last view leaves, so a page it returns
// to the pool is already in this state.
func (m *Map) Reset() {
	for i := range m.views {
		m.views[i] = Slot{}
	}
	m.nviews = 0
	m.nlogs = 0
}

// Len reports the number of valid views in the map.
func (m *Map) Len() int { return int(m.nviews) }

// LogLen reports the number of log entries currently recorded: the whole
// log array once it has overflowed.
func (m *Map) LogLen() int {
	if m.nlogs == logOverflowed {
		return LogCapacity
	}
	return int(m.nlogs)
}

// LogValid reports whether the log still describes every valid view, i.e.
// whether it has not overflowed since the map was last empty.
func (m *Map) LogValid() bool { return m.nlogs != logOverflowed }

// IsEmpty reports whether the map holds no views.
func (m *Map) IsEmpty() bool { return m.nviews == 0 }

// Lookup returns the slot at index i.  It is the constant-time lookup of
// the paper: one bounds check and one array index.
func (m *Map) Lookup(i int) (Slot, error) {
	if i < 0 || i >= SlotsPerMap {
		return Slot{}, fmt.Errorf("%w: %d", ErrSlotOutOfRange, i)
	}
	return m.views[i], nil
}

// Get returns the view word stored at slot i, or nil if the slot is empty
// or out of range.  It is the unchecked fast path used by the reducer
// mechanism.
func (m *Map) Get(i int) unsafe.Pointer {
	if i < 0 || i >= SlotsPerMap {
		return nil
	}
	return m.views[i].view
}

// SlotAt returns the full slot at index i, or the zero Slot if i is out of
// range.  The reducer mechanism uses it on the lookup fast path to read the
// view and the slot's second word (the owner stamp) in one access.
func (m *Map) SlotAt(i int) Slot {
	if i < 0 || i >= SlotsPerMap {
		return Slot{}
	}
	return m.views[i]
}

// Insert stores a (view, owner) pair with the given flags at slot i, which
// must be empty.
func (m *Map) Insert(i int, view, owner unsafe.Pointer, flags uintptr) error {
	if i < 0 || i >= SlotsPerMap {
		return fmt.Errorf("%w: %d", ErrSlotOutOfRange, i)
	}
	if view == nil || owner == nil {
		return errors.New("spa: nil view or owner")
	}
	return m.insertSlot(i, MakeSlot(view, owner, flags))
}

// insertSlot installs a pre-packed slot at an empty index, maintaining the
// count and log bookkeeping.
func (m *Map) insertSlot(i int, s Slot) error {
	if !m.views[i].IsEmpty() {
		return fmt.Errorf("%w: %d", ErrSlotOccupied, i)
	}
	m.views[i] = s
	m.nviews++
	if m.nlogs != logOverflowed {
		if m.nlogs < LogCapacity {
			m.log[m.nlogs] = uint8(i)
			m.nlogs++
		} else {
			// The log array is full: stop keeping track of logs.  The
			// cost of sequencing through the entire view array is
			// amortised against the insertions that overflowed it.
			m.nlogs = logOverflowed
		}
	}
	return nil
}

// Update replaces the view word and flags stored at an occupied slot,
// leaving the owner stamp unchanged.  It is used by hypermerges, which fold
// one view into another in place.
func (m *Map) Update(i int, view unsafe.Pointer, flags uintptr) error {
	if i < 0 || i >= SlotsPerMap {
		return fmt.Errorf("%w: %d", ErrSlotOutOfRange, i)
	}
	s := m.views[i]
	if s.IsEmpty() {
		return fmt.Errorf("%w: %d", ErrSlotEmpty, i)
	}
	if view == nil {
		return errors.New("spa: nil view")
	}
	m.views[i] = MakeSlot(view, s.Owner(), flags)
	return nil
}

// Remove clears slot i (used when a reducer goes out of scope and its slot
// is recycled) and returns the slot's previous contents.
func (m *Map) Remove(i int) (Slot, error) {
	if i < 0 || i >= SlotsPerMap {
		return Slot{}, fmt.Errorf("%w: %d", ErrSlotOutOfRange, i)
	}
	s := m.views[i]
	if s.IsEmpty() {
		return Slot{}, fmt.Errorf("%w: %d", ErrSlotEmpty, i)
	}
	m.views[i] = Slot{}
	m.nviews--
	if m.nviews == 0 {
		// The last view left: rewind the log, overflowed or not.  Pages
		// are never Reset on their way back to the pool or into a spare
		// map set, so without this a page's log fills once and every later
		// walk scans the whole view array.  Legal inside Range: both of its
		// loops then find nothing more to visit.
		m.nlogs = 0
	}
	// Otherwise the log may now contain a stale index; sequencing skips
	// empty slots, so it remains usable without compaction.
	return s, nil
}

// Range calls fn for every valid (index, slot) pair.  If the log is valid
// it walks only the logged indices (linear in the number of insertions);
// otherwise it scans the whole view array.  Iteration stops early if fn
// returns false.  fn may Remove the slot it is visiting, and a walk that
// consumes views must: a page that lived as a worker's private page can
// log one index twice (insert, Remove, insert again at a recycled address),
// so a slot fn leaves in place may be visited a second time.  The rule for
// every deposit walk is therefore "take the slot out the moment its view is
// consumed"; freeing a view and leaving its slot frees it twice.
func (m *Map) Range(fn func(i int, s Slot) bool) {
	if m.nviews == 0 {
		return
	}
	if m.nlogs != logOverflowed {
		for k := 0; k < int(m.nlogs); k++ {
			i := int(m.log[k])
			s := m.views[i]
			if s.IsEmpty() {
				continue
			}
			if !fn(i, s) {
				return
			}
		}
		return
	}
	for i := 0; i < SlotsPerMap; i++ {
		s := m.views[i]
		if s.IsEmpty() {
			continue
		}
		if !fn(i, s) {
			return
		}
	}
}

// TransferTo moves every valid view from m into dst (which must have the
// corresponding slots empty) and clears m.  This is the copying strategy
// for view transferal (Section 7): as the worker sequences through valid
// indices it simultaneously zeroes them out in the source map, so that
// after the transfer the private map is empty and may be reused by the
// worker for its next trace.  Slots move wholesale, flags included.  The
// engine hands pages over instead (MapSet.SwapPages); the copy is kept for
// benchmark/probes.go, which times it as spa.transfer_ns_per_view.
func (m *Map) TransferTo(dst *Map) (moved int, err error) {
	transfer := func(i int, s Slot) bool {
		if insErr := dst.insertSlot(i, s); insErr != nil {
			err = insErr
			return false
		}
		m.views[i] = Slot{}
		m.nviews--
		moved++
		return true
	}
	m.Range(transfer)
	if err != nil {
		return moved, err
	}
	// The source is now empty; restore its pristine state so it can be
	// recycled (the paper requires that recycled SPA maps be empty).
	m.nlogs = 0
	return moved, nil
}
