package spa

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// fakeOwner stands in for the reducer handle whose pointer the engines
// stamp into a slot's second word.
type fakeOwner struct{ name string }

func (o *fakeOwner) ptr() unsafe.Pointer { return unsafe.Pointer(o) }

// newView allocates a word-sized view and returns its word.
func newView() unsafe.Pointer { return unsafe.Pointer(new(int64)) }

func TestSlotIsTwoWords(t *testing.T) {
	if got := unsafe.Sizeof(Slot{}); got != SlotBytes {
		t.Fatalf("Slot is %d bytes, want %d (the paper's 16-byte pair)", got, SlotBytes)
	}
}

func TestSlotFlagPacking(t *testing.T) {
	own := &fakeOwner{"add"}
	v := newView()
	for _, flags := range []uintptr{0, FlagWritten, FlagArena, FlagWritten | FlagArena} {
		s := MakeSlot(v, own.ptr(), flags)
		if s.View() != v {
			t.Fatalf("flags %#x: View mangled", flags)
		}
		if s.Owner() != own.ptr() {
			t.Fatalf("flags %#x: Owner mangled", flags)
		}
		if s.Flags() != flags {
			t.Fatalf("Flags = %#x, want %#x", s.Flags(), flags)
		}
		if s.Arena() != (flags&FlagArena != 0) {
			t.Fatalf("flags %#x: Arena accessor wrong", flags)
		}
		if s.IsEmpty() {
			t.Fatalf("flags %#x: packed slot reads empty", flags)
		}
	}
}

func TestNewMapIsEmpty(t *testing.T) {
	m := New()
	if !m.IsEmpty() || m.Len() != 0 || m.LogLen() != 0 || !m.LogValid() {
		t.Fatalf("fresh map not in empty state: %+v", m)
	}
	for i := 0; i < SlotsPerMap; i++ {
		if !m.SlotAt(i).IsEmpty() {
			t.Fatalf("slot %d not empty in fresh map", i)
		}
	}
}

func TestInsertLookupRemove(t *testing.T) {
	m := New()
	own := &fakeOwner{"add"}
	v := newView()
	if err := m.Insert(7, v, own.ptr(), 0); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if m.Len() != 1 || m.LogLen() != 1 {
		t.Fatalf("Len/LogLen = %d/%d, want 1/1", m.Len(), m.LogLen())
	}
	if got := m.SlotAt(7).View(); got != v {
		t.Fatalf("SlotAt(7).View() = %v, want inserted view", got)
	}
	if got := m.SlotAt(8).View(); got != nil {
		t.Fatalf("SlotAt(8).View() = %v, want nil", got)
	}
	if err := m.Insert(7, newView(), own.ptr(), 0); !errors.Is(err, ErrSlotOccupied) {
		t.Fatalf("double insert: got %v, want ErrSlotOccupied", err)
	}
	s, err := m.Remove(7)
	if err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if s.View() != v || s.Owner() != own.ptr() {
		t.Fatal("Remove returned wrong slot contents")
	}
	if _, err := m.Remove(7); !errors.Is(err, ErrSlotEmpty) {
		t.Fatalf("Remove of empty slot: got %v, want ErrSlotEmpty", err)
	}
	if m.Len() != 0 {
		t.Fatalf("Len after remove = %d, want 0", m.Len())
	}
}

func TestInsertValidation(t *testing.T) {
	m := New()
	own := &fakeOwner{"add"}
	if err := m.Insert(-1, newView(), own.ptr(), 0); !errors.Is(err, ErrSlotOutOfRange) {
		t.Fatalf("Insert(-1): got %v, want ErrSlotOutOfRange", err)
	}
	if err := m.Insert(SlotsPerMap, newView(), own.ptr(), 0); !errors.Is(err, ErrSlotOutOfRange) {
		t.Fatalf("Insert(248): got %v, want ErrSlotOutOfRange", err)
	}
	if err := m.Insert(0, nil, own.ptr(), 0); err == nil {
		t.Fatal("Insert of nil view should fail")
	}
	if err := m.Insert(0, newView(), nil, 0); err == nil {
		t.Fatal("Insert of nil owner should fail")
	}
	if s := m.SlotAt(SlotsPerMap); s != (Slot{}) {
		t.Fatalf("SlotAt out of range = %+v, want the zero Slot", s)
	}
	if _, err := m.Remove(SlotsPerMap + 1); !errors.Is(err, ErrSlotOutOfRange) {
		t.Fatalf("Remove out of range: got %v, want ErrSlotOutOfRange", err)
	}
}

// TestPutReplacesSlot pins MapSet.Put on an occupied slot: the whole slot
// is replaced, owner stamp and flags included, and the count and log are
// those of the one insertion.
func TestPutReplacesSlot(t *testing.T) {
	ms := NewMapSet()
	a, b := &fakeOwner{"a"}, &fakeOwner{"b"}
	v1, v2 := newView(), newView()
	ms.Put(0, 3, MakeSlot(v1, a.ptr(), FlagArena))
	ms.Put(0, 3, MakeSlot(v2, b.ptr(), FlagWritten))
	s := ms.Probe(0, 3)
	if s.View() != v2 || s.Owner() != b.ptr() || s.Flags() != FlagWritten {
		t.Fatalf("Put did not replace the slot: %+v", s)
	}
	if p := ms.Page(0); p.Len() != 1 || p.LogLen() != 1 {
		t.Fatalf("Len/LogLen after a replacing Put = %d/%d, want 1/1", p.Len(), p.LogLen())
	}
}

func TestRangeUsesLogWhenValid(t *testing.T) {
	m := New()
	own := &fakeOwner{"add"}
	order := []int{17, 3, 200, 45}
	for _, i := range order {
		if err := m.Insert(i, newView(), own.ptr(), 0); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	var visited []int
	m.Range(func(i int, s Slot) bool {
		visited = append(visited, i)
		return true
	})
	if len(visited) != len(order) {
		t.Fatalf("Range visited %d slots, want %d", len(visited), len(order))
	}
	// With a valid log, visitation order is insertion order.
	for k := range order {
		if visited[k] != order[k] {
			t.Fatalf("Range order %v, want insertion order %v", visited, order)
		}
	}
	// Early termination.
	count := 0
	m.Range(func(i int, s Slot) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("Range early stop visited %d, want 2", count)
	}
}

func TestRangeSkipsRemovedEntriesLoggedEarlier(t *testing.T) {
	m := New()
	own := &fakeOwner{"add"}
	for _, i := range []int{1, 2, 3} {
		if err := m.Insert(i, newView(), own.ptr(), 0); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if _, err := m.Remove(2); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	var visited []int
	m.Range(func(i int, s Slot) bool {
		visited = append(visited, i)
		return true
	})
	if len(visited) != 2 || visited[0] != 1 || visited[1] != 3 {
		t.Fatalf("Range after removal visited %v, want [1 3]", visited)
	}
}

func TestRangeAllowsRemovalDuringIteration(t *testing.T) {
	// A walk may remove some slots as it visits them and leave the rest
	// (the hypermerge drops a stale view and adopts or reduces another);
	// exercise that on both the logged and the overflowed (full-scan)
	// sequencing paths.
	for _, n := range []int{40, LogCapacity + 30} {
		m := New()
		own := &fakeOwner{"add"}
		for i := 0; i < n; i++ {
			flags := uintptr(0)
			if i%2 == 0 {
				flags = FlagArena
			}
			if err := m.Insert(i, newView(), own.ptr(), flags); err != nil {
				t.Fatalf("Insert(%d): %v", i, err)
			}
		}
		removed := 0
		m.Range(func(i int, s Slot) bool {
			if !s.Arena() {
				if _, err := m.Remove(i); err != nil {
					t.Fatalf("Remove(%d) during Range: %v", i, err)
				}
				removed++
			}
			return true
		})
		if removed != n/2 {
			t.Fatalf("n=%d: removed %d heap slots, want %d", n, removed, n/2)
		}
		if m.Len() != n-removed {
			t.Fatalf("n=%d: Len = %d after the partial walk, want %d", n, m.Len(), n-removed)
		}
		m.Range(func(i int, s Slot) bool {
			if !s.Arena() {
				t.Fatalf("n=%d: removed slot %d survived the walk", n, i)
			}
			return true
		})
		// Removing the rest inside Range takes the last view out mid-walk,
		// which rewinds the log under the loop: every slot is still visited
		// exactly once and the page comes out empty with a rewound log.
		seen := make(map[int]int)
		m.Range(func(i int, s Slot) bool {
			seen[i]++
			if _, err := m.Remove(i); err != nil {
				t.Fatalf("Remove(%d) during Range: %v", i, err)
			}
			return true
		})
		if len(seen) != n-removed {
			t.Fatalf("n=%d: remove-all walk visited %d slots, want %d", n, len(seen), n-removed)
		}
		for i, k := range seen {
			if k != 1 {
				t.Fatalf("n=%d: slot %d visited %d times", n, i, k)
			}
		}
		if !m.IsEmpty() || !m.LogValid() || m.LogLen() != 0 {
			t.Fatalf("n=%d: emptied page has views=%d logValid=%v logLen=%d, want a rewound log",
				n, m.Len(), m.LogValid(), m.LogLen())
		}
	}
}

// TestRemoveOfLastViewRewindsLog pins the rule that keeps a reused page
// cheap to walk: the engines empty a page slot by slot on its way back to
// the page pool or into a spare map set, and nothing else clears it, so its
// log must rewind when its last view leaves, or the 121st insertion
// overflows it and every later walk scans all SlotsPerMap slots.
func TestRemoveOfLastViewRewindsLog(t *testing.T) {
	m := New()
	own := &fakeOwner{"add"}
	for round := 0; round < 300; round++ {
		if err := m.Insert(7, newView(), own.ptr(), 0); err != nil {
			t.Fatalf("round %d: Insert: %v", round, err)
		}
		if !m.LogValid() || m.LogLen() != 1 {
			t.Fatalf("round %d: after insert logValid=%v logLen=%d, want true/1", round, m.LogValid(), m.LogLen())
		}
		if _, err := m.Remove(7); err != nil {
			t.Fatalf("round %d: Remove: %v", round, err)
		}
		if !m.LogValid() || m.LogLen() != 0 {
			t.Fatalf("round %d: after remove logValid=%v logLen=%d, want true/0", round, m.LogValid(), m.LogLen())
		}
	}
}

func TestLogOverflowFallsBackToScan(t *testing.T) {
	m := New()
	own := &fakeOwner{"add"}
	// Insert more views than the log can describe.
	n := LogCapacity + 30
	for i := 0; i < n; i++ {
		if err := m.Insert(i, newView(), own.ptr(), 0); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	if m.LogValid() {
		t.Fatal("log should be invalid after overflow")
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	seen := make(map[int]bool)
	m.Range(func(i int, s Slot) bool {
		if seen[i] {
			t.Fatalf("slot %d visited twice", i)
		}
		seen[i] = true
		return true
	})
	if len(seen) != n {
		t.Fatalf("Range visited %d slots after overflow, want %d", len(seen), n)
	}
}

func TestTransferToMovesAndEmptiesSource(t *testing.T) {
	src := New()
	dst := New()
	own := &fakeOwner{"add"}
	idx := []int{5, 9, 100, 247}
	for _, i := range idx {
		if err := src.Insert(i, newView(), own.ptr(), FlagWritten|FlagArena); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	moved, err := src.TransferTo(dst)
	if err != nil {
		t.Fatalf("TransferTo: %v", err)
	}
	if moved != len(idx) {
		t.Fatalf("moved %d views, want %d", moved, len(idx))
	}
	if !src.IsEmpty() || !src.LogValid() || src.LogLen() != 0 {
		t.Fatal("source map not empty after transfer")
	}
	if dst.Len() != len(idx) {
		t.Fatalf("destination has %d views, want %d", dst.Len(), len(idx))
	}
	for _, i := range idx {
		s := dst.SlotAt(i)
		if s.IsEmpty() {
			t.Fatalf("destination missing view at slot %d", i)
		}
		if s.Flags() != FlagWritten|FlagArena {
			t.Fatalf("transfer dropped flags at slot %d: %#x", i, s.Flags())
		}
	}
}

func TestTransferToOccupiedDestinationFails(t *testing.T) {
	src := New()
	dst := New()
	own := &fakeOwner{"add"}
	_ = src.Insert(4, newView(), own.ptr(), 0)
	_ = dst.Insert(4, newView(), own.ptr(), 0)
	if _, err := src.TransferTo(dst); !errors.Is(err, ErrSlotOccupied) {
		t.Fatalf("TransferTo into occupied slot: got %v, want ErrSlotOccupied", err)
	}
}

func TestPropertyInsertedViewsAreFound(t *testing.T) {
	own := &fakeOwner{"m"}
	f := func(raw []uint8) bool {
		m := New()
		want := make(map[int]unsafe.Pointer)
		for _, r := range raw {
			i := int(r) % SlotsPerMap
			if _, ok := want[i]; ok {
				continue
			}
			v := newView()
			if err := m.Insert(i, v, own.ptr(), 0); err != nil {
				return false
			}
			want[i] = v
		}
		if m.Len() != len(want) {
			return false
		}
		for i, v := range want {
			if m.SlotAt(i).View() != v {
				return false
			}
		}
		found := 0
		m.Range(func(i int, s Slot) bool {
			if want[i] != s.View() {
				return false
			}
			found++
			return true
		})
		return found == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTransferPreservesViews(t *testing.T) {
	own := &fakeOwner{"m"}
	f := func(raw []uint8) bool {
		src, dst := New(), New()
		want := make(map[int]unsafe.Pointer)
		for _, r := range raw {
			i := int(r) % SlotsPerMap
			if _, ok := want[i]; ok {
				continue
			}
			v := newView()
			_ = src.Insert(i, v, own.ptr(), 0)
			want[i] = v
		}
		moved, err := src.TransferTo(dst)
		if err != nil || moved != len(want) {
			return false
		}
		if !src.IsEmpty() {
			return false
		}
		for i, v := range want {
			if dst.SlotAt(i).View() != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMapSetAddressing(t *testing.T) {
	if MakeAddr(2, 17).Page() != 2 || MakeAddr(2, 17).Slot() != 17 {
		t.Fatal("MakeAddr/Page/Slot mismatch")
	}
	ms := NewMapSet()
	own := &fakeOwner{"add"}
	addr := MakeAddr(3, 100)
	v := newView()
	if got := ms.SlotAt(addr).View(); got != nil {
		t.Fatalf("SlotAt on an empty set = %v, want nil", got)
	}
	if err := ms.Insert(addr, v, own.ptr(), 0); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if ms.Pages() != 4 {
		t.Fatalf("Pages = %d, want 4 (grown to cover page 3)", ms.Pages())
	}
	if got := ms.SlotAt(addr).View(); got != v {
		t.Fatal("SlotAt did not return the inserted view")
	}
	if ms.Len() != 1 || ms.IsEmpty() {
		t.Fatalf("Len = %d, IsEmpty = %v", ms.Len(), ms.IsEmpty())
	}
	if err := ms.Insert(Addr(-1), v, own.ptr(), 0); err == nil {
		t.Fatal("Insert at negative addr should fail")
	}
	ms.Put(addr.Page(), addr.Slot(), MakeSlot(newView(), own.ptr(), FlagArena))
	if !ms.SlotAt(addr).Arena() {
		t.Fatal("Put at MapSet level did not set the flags")
	}
	if _, err := ms.Remove(MakeAddr(9, 0)); err == nil {
		t.Fatal("Remove beyond last page should fail")
	}
	s, err := ms.Remove(addr)
	if err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if s.IsEmpty() {
		t.Fatal("Remove returned empty slot")
	}
	if ms.Page(0) == nil || ms.Page(7) != nil || ms.Page(-1) != nil {
		t.Fatal("Page bounds handling incorrect")
	}
}

func TestMapSetPutPreservesFlags(t *testing.T) {
	ms := NewMapSet()
	own := &fakeOwner{"add"}
	v := newView()
	addr := MakeAddr(1, 9)
	ms.Put(addr.Page(), addr.Slot(), MakeSlot(v, own.ptr(), FlagWritten|FlagArena))
	if ms.Pages() != 2 {
		t.Fatalf("Pages = %d, want 2 (grown to cover page 1)", ms.Pages())
	}
	s := ms.SlotAt(addr)
	if s.View() != v || s.Owner() != own.ptr() || s.Flags() != FlagWritten|FlagArena {
		t.Fatalf("Put mangled the slot: %+v", s)
	}
}

func TestMapSetRangeAndTransfer(t *testing.T) {
	own := &fakeOwner{"add"}
	src := NewMapSet()
	dst := NewMapSet()
	rng := rand.New(rand.NewSource(42))
	want := make(map[Addr]unsafe.Pointer)
	for len(want) < 400 {
		addr := MakeAddr(rng.Intn(3), rng.Intn(SlotsPerMap))
		if _, ok := want[addr]; ok {
			continue
		}
		v := newView()
		if err := src.Insert(addr, v, own.ptr(), 0); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		want[addr] = v
	}
	// The engines walk a set page by page, as here.
	count := 0
	for pi := 0; pi < src.Pages(); pi++ {
		src.Page(pi).Range(func(si int, s Slot) bool {
			if addr := MakeAddr(pi, si); want[addr] != s.View() {
				t.Fatalf("Range returned wrong view at %d", addr)
			}
			count++
			return true
		})
	}
	if count != len(want) {
		t.Fatalf("Range visited %d, want %d", count, len(want))
	}
	moved, err := src.TransferTo(dst)
	if err != nil {
		t.Fatalf("TransferTo: %v", err)
	}
	if moved != len(want) || !src.IsEmpty() || dst.Len() != len(want) {
		t.Fatalf("transfer moved %d, src empty %v, dst len %d", moved, src.IsEmpty(), dst.Len())
	}
	for addr, v := range want {
		if dst.SlotAt(addr).View() != v {
			t.Fatalf("destination missing view at %d", addr)
		}
	}
}

func TestMapSetOccupiedPageSpan(t *testing.T) {
	ms := NewMapSet()
	own := &fakeOwner{"m"}
	if got := ms.OccupiedPageSpan(); got != 0 {
		t.Fatalf("empty set span = %d, want 0", got)
	}
	mustInsert := func(addr Addr) {
		if err := ms.Insert(addr, newView(), own.ptr(), 0); err != nil {
			t.Fatalf("Insert(%d): %v", addr, err)
		}
	}
	mustInsert(MakeAddr(0, 3))
	if got := ms.OccupiedPageSpan(); got != 1 {
		t.Fatalf("span = %d, want 1", got)
	}
	mustInsert(MakeAddr(2, 7))
	if got := ms.OccupiedPageSpan(); got != 3 {
		t.Fatalf("span = %d, want 3 (page 1 empty but in-span)", got)
	}
	if _, err := ms.Remove(MakeAddr(2, 7)); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if got := ms.OccupiedPageSpan(); got != 1 {
		t.Fatalf("span after remove = %d, want 1", got)
	}
}

func TestMapSetSwapPages(t *testing.T) {
	private := NewMapSet()
	own := &fakeOwner{"m"}
	views := make([]unsafe.Pointer, 3)
	for i := 0; i < 3; i++ {
		views[i] = newView()
		if err := private.Insert(MakeAddr(i, i), views[i], own.ptr(), 0); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// Hand off the two leading pages; page 2 stays private.
	fresh := []*Map{New(), New()}
	pages := append([]*Map(nil), fresh...)
	old := []*Map{private.Page(0), private.Page(1)}
	private.SwapPages(pages)
	if private.Pages() != 3 || private.Len() != 1 || private.SlotAt(MakeAddr(2, 2)).View() != views[2] {
		t.Fatalf("private set after swap: %d pages, %d views", private.Pages(), private.Len())
	}
	for i := range pages {
		if pages[i] != old[i] || pages[i].SlotAt(i).View() != views[i] {
			t.Fatalf("handed-off page %d is not the private page with its view in place", i)
		}
		if private.Page(i) != fresh[i] || !private.Page(i).IsEmpty() {
			t.Fatalf("private page %d is not the fresh page", i)
		}
	}
}

// A page that lived as a private page can log one index twice.  A walk that
// removes what it visits sees the slot once; one that leaves it in place
// sees it again — which is why every deposit walk takes slots out.
func TestRangeRepeatedLogIndex(t *testing.T) {
	m := New()
	own := &fakeOwner{"m"}
	insert := func(i int) {
		t.Helper()
		if err := m.Insert(i, newView(), own.ptr(), 0); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	// Index 9 stays resident throughout: removing a page's only view
	// rewinds its log, and the doubled index needs the log kept.
	insert(9)
	insert(5)
	if _, err := m.Remove(5); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	insert(5)
	if !m.LogValid() || m.LogLen() != 3 || m.Len() != 2 {
		t.Fatalf("log valid=%v len=%d views=%d, want true/3/2", m.LogValid(), m.LogLen(), m.Len())
	}
	keep := map[int]int{}
	m.Range(func(i int, _ Slot) bool { keep[i]++; return true })
	if keep[5] != 2 || keep[9] != 1 {
		t.Fatalf("non-removing walk visited %v, want index 5 twice and 9 once", keep)
	}
	take := map[int]int{}
	m.Range(func(i int, _ Slot) bool {
		if _, err := m.Remove(i); err != nil {
			t.Fatalf("Remove(%d) during Range: %v", i, err)
		}
		take[i]++
		return true
	})
	if take[5] != 1 || take[9] != 1 || !m.IsEmpty() {
		t.Fatalf("removing walk visited %v and left %d views, want each index once and none left", take, m.Len())
	}
}
