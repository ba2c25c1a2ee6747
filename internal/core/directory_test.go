package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/spa"
)

// The directories in these tests have no engine attached: registration
// through the directory tags reducers with a nil engine, which none of these
// tests dereference.

// TestDirectorySequentialAddrsDense checks that a single-threaded
// registration sequence receives the dense addresses 0, 1, 2, ..., so the
// SPA page span stays proportional to the number of reducers.
func TestDirectorySequentialAddrsDense(t *testing.T) {
	d := core.NewDirectory(nil)
	for i := 0; i < 1000; i++ {
		r, err := d.Register(nil, sumMonoid)
		if err != nil {
			t.Fatalf("Register %d: %v", i, err)
		}
		if r.Addr() != spa.Addr(i) {
			t.Fatalf("registration %d got address %d", i, r.Addr())
		}
	}
	if d.Live() != 1000 {
		t.Fatalf("Live = %d, want 1000", d.Live())
	}
}

// TestDirectoryRecyclesLIFO pins the free list's order: the address
// unregistered last is the next one handed out.  So one reducer churned in
// a loop keeps one address, and concurrent churn never mints an address
// beyond the peak live count.
func TestDirectoryRecyclesLIFO(t *testing.T) {
	d := core.NewDirectory(nil)
	first, _ := d.Register(nil, sumMonoid)
	d.Unregister(first)
	for i := 0; i < 1000; i++ {
		r, err := d.Register(nil, sumMonoid)
		if err != nil {
			t.Fatalf("Register %d: %v", i, err)
		}
		if r.Addr() != first.Addr() {
			t.Fatalf("churn %d got address %d, want the recycled %d", i, r.Addr(), first.Addr())
		}
		d.Unregister(r)
	}

	// W goroutines each hold at most k live reducers, so at most W·k are
	// live at once: a fresh address is minted only when the free list is
	// empty, so none may reach W·k.
	const workers, k, rounds = 4, 8, 200
	d = core.NewDirectory(nil)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := make([]*core.Reducer, k)
			for i := 0; i < rounds; i++ {
				for j := range rs {
					r, err := d.Register(nil, sumMonoid)
					if err != nil {
						t.Errorf("Register: %v", err)
						return
					}
					if r.Addr() >= workers*k {
						t.Errorf("address %d minted with at most %d reducers live", r.Addr(), workers*k)
						return
					}
					rs[j] = r
				}
				d.Unregister(rs...)
				for _, r := range rs {
					if d.Valid(r) {
						t.Errorf("batch Unregister left reducer %d valid", r.ID())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := d.Stats(); st.FreshSlots > workers*k || st.Live != 0 || st.FreeSlots != st.FreshSlots ||
		st.Unregisters != workers*rounds*k || st.StaleUnregisters != 0 {
		t.Fatalf("after churn: %+v, want FreshSlots ≤ %d, no live, every address free, %d unregisters and none stale",
			st, workers*k, workers*rounds*k)
	}
}

func TestDirectoryRecycleAndEpochValidity(t *testing.T) {
	d := core.NewDirectory(nil)
	r1, _ := d.Register(nil, sumMonoid)
	if !d.Valid(r1) || d.Live() != 1 {
		t.Fatal("fresh registration not valid")
	}
	d.Unregister(r1)
	if st := d.Stats(); st.Unregisters != 1 {
		t.Fatalf("Unregister did not count a live reducer: %+v", st)
	}
	if d.Valid(r1) || d.Live() != 0 {
		t.Fatal("retired handle still valid")
	}
	r2, _ := d.Register(nil, sumMonoid)
	if r2.Addr() != r1.Addr() {
		t.Fatalf("address not recycled: got %d, want %d", r2.Addr(), r1.Addr())
	}
	// The validity flag lives on the reducer, so the incarnations of the
	// shared address cannot be confused.
	if d.Valid(r1) {
		t.Fatal("stale handle satisfied by recycled slot")
	}
	if !d.Valid(r2) {
		t.Fatal("recycled registration not valid")
	}
	// A reducer of another directory at the same address is neither valid
	// here nor unregistered by this directory.
	other := core.NewDirectory(nil)
	foreign, _ := other.Register(nil, sumMonoid)
	if foreign.Addr() != r2.Addr() {
		t.Fatalf("foreign reducer at address %d, want %d", foreign.Addr(), r2.Addr())
	}
	d.Unregister(foreign)
	if st := d.Stats(); d.Valid(foreign) || st.Unregisters != 1 || st.StaleUnregisters != 1 {
		t.Fatalf("a reducer of another directory passed for one of this directory's: %+v", st)
	}
	if !other.Valid(foreign) || !d.Valid(r2) || d.Live() != 1 {
		t.Fatal("the foreign unregister attempt disturbed a live registration")
	}
}

// TestDirectoryDoubleUnregister is the regression test for the seed MM bug:
// a double-Unregister after slot reuse must neither delete the new
// occupant's entry nor push a duplicate address onto the free list.
func TestDirectoryDoubleUnregister(t *testing.T) {
	d := core.NewDirectory(nil)
	r1, _ := d.Register(nil, sumMonoid)
	d.Unregister(r1)
	if st := d.Stats(); st.Unregisters != 1 {
		t.Fatalf("first Unregister failed: %+v", st)
	}
	r2, _ := d.Register(nil, sumMonoid)
	if r2.Addr() != r1.Addr() {
		t.Fatalf("slot not recycled: got %d, want %d", r2.Addr(), r1.Addr())
	}
	// Stale second unregister: must be a no-op.
	d.Unregister(r1)
	if st := d.Stats(); st.Unregisters != 1 {
		t.Fatalf("double Unregister of a stale handle succeeded: %+v", st)
	}
	if d.Live() != 1 || !d.Valid(r2) {
		t.Fatalf("double unregister disturbed the live occupant: live=%d valid=%v", d.Live(), d.Valid(r2))
	}
	// No duplicate address may have entered the free list: the next
	// registration must get a fresh address, not r2's.
	r3, _ := d.Register(nil, sumMonoid)
	if r3.Addr() == r2.Addr() {
		t.Fatalf("free list handed out a live address %d twice", r2.Addr())
	}
	st := d.Stats()
	if st.StaleUnregisters != 1 {
		t.Fatalf("StaleUnregisters = %d, want 1", st.StaleUnregisters)
	}
	// A batch holding the stale handle, a nil and a live reducer twice
	// retires the live one once and counts the other two as stale.
	d.Unregister(r1, nil, r2, r2)
	if st := d.Stats(); st.Unregisters != 2 || st.StaleUnregisters != 3 || d.Live() != 1 || d.Valid(r2) || !d.Valid(r3) {
		t.Fatalf("after the batch: %+v, live=%d; want 2 unregisters, 3 stale, only r3 live", st, d.Live())
	}
}

func TestDirectoryGrowHookOrdering(t *testing.T) {
	var pages []int
	d := core.NewDirectory(func(p int) error { pages = append(pages, p); return nil })
	n := 2*spa.SlotsPerMap + 1 // spans three SPA pages
	for i := 0; i < n; i++ {
		if _, err := d.Register(nil, sumMonoid); err != nil {
			t.Fatalf("Register %d: %v", i, err)
		}
	}
	if len(pages) != 3 {
		t.Fatalf("OnGrow ran %d times, want 3", len(pages))
	}
	for i, p := range pages {
		if p != i {
			t.Fatalf("OnGrow order %v: want ascending from 0", pages)
		}
	}
	if st := d.Stats(); st.GrownPages != 3 {
		t.Fatalf("GrownPages = %d, want 3", st.GrownPages)
	}
}

func TestDirectoryGrowHookErrorFailsRegistration(t *testing.T) {
	fail := false
	d := core.NewDirectory(func(p int) error {
		if fail {
			return errTest
		}
		return nil
	})
	for i := 0; i < spa.SlotsPerMap; i++ {
		if _, err := d.Register(nil, sumMonoid); err != nil {
			t.Fatalf("Register %d: %v", i, err)
		}
	}
	fail = true
	if _, err := d.Register(nil, sumMonoid); err == nil {
		t.Fatal("registration crossing a failed grow succeeded")
	}
	live := d.Live()
	fail = false
	r, err := d.Register(nil, sumMonoid)
	if err != nil {
		t.Fatalf("Register after grow recovered: %v", err)
	}
	// The failed registration must not have leaked its address.
	if r.Addr() != spa.Addr(spa.SlotsPerMap) || d.Live() != live+1 {
		t.Fatalf("failed registration leaked state: addr=%d live=%d", r.Addr(), d.Live())
	}
}

// TestDirectoryConcurrentChurn hammers Register/Unregister from many
// goroutines and checks the directory's global invariants afterwards:
// the live count is exact, every live reducer is valid, no two live
// reducers share an address, and every address ever minted is either live
// or on the free list.
func TestDirectoryConcurrentChurn(t *testing.T) {
	d := core.NewDirectory(nil)
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	keep := make([][]*core.Reducer, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r, err := d.Register(nil, sumMonoid)
				if err != nil {
					t.Errorf("Register: %v", err)
					return
				}
				if i%3 == 0 {
					keep[g] = append(keep[g], r)
				} else {
					d.Unregister(r)
					if d.Valid(r) {
						t.Error("Unregister of own live reducer failed")
						return
					}
					d.Unregister(r) // stale double-unregister must be a no-op
				}
			}
		}()
	}
	wg.Wait()
	want := 0
	seen := make(map[spa.Addr]bool)
	for _, rs := range keep {
		for _, r := range rs {
			want++
			if !d.Valid(r) {
				t.Fatalf("kept reducer %d invalid", r.ID())
			}
			if seen[r.Addr()] {
				t.Fatalf("two live reducers share address %d", r.Addr())
			}
			seen[r.Addr()] = true
		}
	}
	if d.Live() != want {
		t.Fatalf("Live = %d, want %d", d.Live(), want)
	}
	st := d.Stats()
	if st.Registers != goroutines*perG {
		t.Fatalf("Registers = %d, want %d", st.Registers, goroutines*perG)
	}
	if st.Recycles+st.FreshSlots != st.Registers {
		t.Fatalf("Recycles+FreshSlots = %d, want %d", st.Recycles+st.FreshSlots, st.Registers)
	}
	if st.Unregisters != int64(goroutines*perG-want) {
		t.Fatalf("Unregisters = %d, want %d", st.Unregisters, goroutines*perG-want)
	}
	if st.Live+st.FreeSlots != st.FreshSlots {
		t.Fatalf("Live+FreeSlots = %d, want FreshSlots = %d", st.Live+st.FreeSlots, st.FreshSlots)
	}
}

// errTest is a sentinel for the grow-hook failure test.
var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "test grow failure" }
