package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/spa"
)

// newDir is a directory with no engine attached: registration through the
// directory tags reducers with a nil engine, which none of these tests
// dereference.
func newDir(cfg core.DirectoryConfig) *core.Directory { return core.NewDirectory(cfg) }

func TestDirectoryShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {100, 128},
	} {
		d := newDir(core.DirectoryConfig{Shards: tc.in})
		if got := d.Shards(); got != tc.want {
			t.Fatalf("Shards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	// The default is a power of two sized from the worker count.
	d := newDir(core.DirectoryConfig{Workers: 3})
	if got := d.Shards(); got < 8 || got&(got-1) != 0 {
		t.Fatalf("default shard count %d: want a power of two >= 8", got)
	}
}

// TestDirectorySequentialAddrsDense checks the striped address layout: a
// single-threaded registration sequence receives the dense addresses
// 0, 1, 2, ... regardless of the shard count, so the SPA page span stays
// proportional to the number of reducers.
func TestDirectorySequentialAddrsDense(t *testing.T) {
	d := newDir(core.DirectoryConfig{Shards: 16})
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

func TestDirectoryRecycleAndEpochValidity(t *testing.T) {
	d := newDir(core.DirectoryConfig{Shards: 1})
	r1, _ := d.Register(nil, sumMonoid)
	if !d.Valid(r1) {
		t.Fatal("fresh registration not valid")
	}
	if got := d.Get(r1.Addr()); got != r1 {
		t.Fatalf("Get = %p, want r1", got)
	}
	if !d.Unregister(r1) {
		t.Fatal("Unregister returned false for a live reducer")
	}
	if d.Valid(r1) {
		t.Fatal("retired handle still valid")
	}
	if d.Get(r1.Addr()) != nil {
		t.Fatal("Get returned a retired reducer")
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
	if got := d.Get(r2.Addr()); got != r2 {
		t.Fatalf("Get after recycle = %p, want r2", got)
	}
	// A reducer of another directory at the same address is neither valid
	// here nor unregistered by this directory.
	other := newDir(core.DirectoryConfig{Shards: 1})
	foreign, _ := other.Register(nil, sumMonoid)
	if foreign.Addr() != r2.Addr() {
		t.Fatalf("foreign reducer at address %d, want %d", foreign.Addr(), r2.Addr())
	}
	if d.Valid(foreign) || d.Unregister(foreign) {
		t.Fatal("a reducer of another directory passed for one of this directory's")
	}
	if !other.Valid(foreign) || !d.Valid(r2) || d.Live() != 1 {
		t.Fatal("the foreign unregister attempt disturbed a live registration")
	}
}

// TestDirectoryDoubleUnregister is the regression test for the seed MM bug:
// a double-Unregister after slot reuse must neither delete the new
// occupant's entry nor push a duplicate address onto the free list.
func TestDirectoryDoubleUnregister(t *testing.T) {
	d := newDir(core.DirectoryConfig{Shards: 1})
	r1, _ := d.Register(nil, sumMonoid)
	if !d.Unregister(r1) {
		t.Fatal("first Unregister failed")
	}
	r2, _ := d.Register(nil, sumMonoid)
	if r2.Addr() != r1.Addr() {
		t.Fatalf("slot not recycled: got %d, want %d", r2.Addr(), r1.Addr())
	}
	// Stale second unregister: must be a no-op.
	if d.Unregister(r1) {
		t.Fatal("double Unregister of a stale handle succeeded")
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
}

func TestDirectoryGrowHookOrdering(t *testing.T) {
	var pages []int
	d := newDir(core.DirectoryConfig{
		Shards: 4,
		OnGrow: func(p int) error { pages = append(pages, p); return nil },
	})
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
	d := newDir(core.DirectoryConfig{
		Shards: 1,
		OnGrow: func(p int) error {
			if fail {
				return errTest
			}
			return nil
		},
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
// the live count is exact, every live reducer is valid, and no two live
// reducers share an address.
func TestDirectoryConcurrentChurn(t *testing.T) {
	d := newDir(core.DirectoryConfig{Shards: 8})
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
					if !d.Unregister(r) {
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
	n := 0
	d.Range(func(r *core.Reducer) bool { n++; return true })
	if n != want {
		t.Fatalf("Range visited %d live reducers, want %d", n, want)
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
}

// errTest is a sentinel for the grow-hook failure test.
var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "test grow failure" }
