package spa

import (
	"testing"
	"unsafe"
)

// TestProbeMatchesSlotAt pins Probe — the lookup fast path's predecomposed
// twin of SlotAt — to identical results: same slot for an occupied address,
// the zero Slot for a missing page, and an empty (never FastHit-able) slot
// for an unoccupied index on an existing page.
func TestProbeMatchesSlotAt(t *testing.T) {
	ms := NewMapSet()
	view := unsafe.Pointer(new(int64))
	owner := unsafe.Pointer(new(int64))
	addr := MakeAddr(2, 17)
	if err := ms.Insert(addr, view, owner, FlagWritten); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	s := ms.Probe(2, 17)
	if s != ms.SlotAt(addr) {
		t.Fatalf("Probe(2, 17) = %+v, differs from SlotAt(%d)", s, addr)
	}
	if s.View() != view || s.Owner() != owner || s.Flags() != FlagWritten {
		t.Fatalf("Probe returned wrong slot: view %p owner %p flags %#x",
			s.View(), s.Owner(), s.Flags())
	}

	// EnsurePage materialised pages 0..2, so a probe of an unoccupied index
	// on an existing page is an empty slot, not a panic.
	if got := ms.Probe(1, 17); !got.IsEmpty() {
		t.Fatalf("unoccupied slot probe = %+v, want empty", got)
	}
	// Pages beyond the set: the zero Slot, matching SlotAt's contract.
	if got := ms.Probe(3, 0); got != (Slot{}) {
		t.Fatalf("missing-page probe = %+v, want zero Slot", got)
	}
	if got := ms.Probe(-1, 0); got != (Slot{}) {
		t.Fatalf("negative-page probe = %+v, want zero Slot", got)
	}
}

// TestFastHit pins the one-masked-compare hit predicate the devirtualized
// lookup paths inline: the stamped owner must match, a read-only and a
// mutable access hit alike whatever flag bits the slot carries, and flag
// bits never corrupt the owner comparison.
func TestFastHit(t *testing.T) {
	view := unsafe.Pointer(new(int64))
	owner := unsafe.Pointer(new(int64))
	other := unsafe.Pointer(new(int64))

	slot := func(flags uintptr) Slot {
		m := New()
		if err := m.Insert(5, view, owner, flags); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		return m.SlotAt(5)
	}

	cases := []struct {
		name          string
		s             Slot
		owner         unsafe.Pointer
		mutable, want bool
	}{
		{"empty slot never hits", Slot{}, owner, false, false},
		{"empty slot never hits mutably", Slot{}, owner, true, false},
		{"owned read hits", slot(0), owner, false, true},
		{"owned mutable hits", slot(0), owner, true, true},
		{"arena flag does not disturb the owner compare", slot(FlagArena), owner, true, true},
		{"every flag bit set does not disturb the owner compare", slot(FlagMask), owner, false, true},
		{"foreign owner misses", slot(0), other, false, false},
		{"foreign owner misses mutably", slot(FlagArena), other, true, false},
	}
	for _, tc := range cases {
		if got := tc.s.FastHit(tc.owner, tc.mutable); got != tc.want {
			t.Errorf("%s: FastHit = %v, want %v", tc.name, got, tc.want)
		}
	}
}
