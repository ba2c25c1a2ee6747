package pagepool

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

type page struct {
	id    int
	dirty bool
}

// newPool returns a pool and the count of pages its factory has made; the
// factory runs on whichever worker's Get missed, so the count is atomic.
func newPool(workers, localMax int) (*Pool[*page], *atomic.Int64) {
	created := new(atomic.Int64)
	p := New[*page](workers,
		func() *page { return &page{id: int(created.Add(1))} },
		WithEmptyCheck[*page](func(pg *page) bool { return !pg.dirty }),
	)
	p.localMax = localMax
	return p, created
}

func TestGetCreatesFreshWhenEmpty(t *testing.T) {
	p, created := newPool(2, 4)
	pg := p.Get(0)
	if pg == nil || created.Load() != 1 {
		t.Fatalf("expected one fresh page, created=%d", created.Load())
	}
	st := p.Stats()
	if st.Allocs != 1 || st.FreshPages != 1 || st.LocalHits != 0 || st.GlobalHits != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestPutThenGetHitsLocalPool(t *testing.T) {
	p, created := newPool(2, 4)
	pg := p.Get(1)
	p.Put(1, pg)
	got := p.Get(1)
	if got != pg {
		t.Fatal("expected to get the recycled page back")
	}
	if created.Load() != 1 {
		t.Fatalf("created %d pages, want 1", created.Load())
	}
	st := p.Stats()
	if st.LocalHits != 1 {
		t.Fatalf("LocalHits = %d, want 1", st.LocalHits)
	}
}

func TestDirtyPagesAreRejected(t *testing.T) {
	p, _ := newPool(1, 4)
	pg := p.Get(0)
	pg.dirty = true
	p.Put(0, pg)
	st := p.Stats()
	if st.RejectedDirty != 1 || st.Frees != 0 {
		t.Fatalf("dirty page not rejected: %+v", st)
	}
	// The next Get must not return the dirty page.
	got := p.Get(0)
	if got == pg {
		t.Fatal("dirty page was recycled")
	}
}

func TestRebalanceSpillsToGlobalPool(t *testing.T) {
	p, _ := newPool(2, 4)
	pages := make([]*page, 10)
	for i := range pages {
		pages[i] = p.Get(0)
	}
	for _, pg := range pages {
		p.Put(0, pg)
	}
	st := p.Stats()
	if st.Rebalances == 0 {
		t.Fatalf("expected at least one rebalance, stats %+v", st)
	}
	if st.GlobalPages == 0 {
		t.Fatalf("expected pages in the global pool, stats %+v", st)
	}
	if st.LocalPages+st.GlobalPages != 10 {
		t.Fatalf("pages lost during rebalance: %+v", st)
	}
	// Another worker's Get should be able to pull from the global pool.
	beforeFresh := st.FreshPages
	_ = p.Get(1)
	st = p.Stats()
	if st.GlobalHits == 0 && st.FreshPages != beforeFresh {
		t.Fatalf("worker 1 allocated fresh instead of using global pool: %+v", st)
	}
}

func TestPrime(t *testing.T) {
	p, created := newPool(1, 4)
	p.Prime(5)
	p.Prime(0)
	if created.Load() != 5 {
		t.Fatalf("Prime created %d pages, want 5", created.Load())
	}
	st := p.Stats()
	if st.GlobalPages != 5 {
		t.Fatalf("GlobalPages = %d, want 5", st.GlobalPages)
	}
	_ = p.Get(0)
	st = p.Stats()
	if st.GlobalHits != 1 || st.FreshPages != 0 {
		t.Fatalf("expected a global hit, got %+v", st)
	}
}

func TestWorkerIndexOutOfRangeIsClamped(t *testing.T) {
	p, _ := newPool(2, 4)
	pg := p.Get(-5)
	p.Put(99, pg)
	if got := p.Get(99); got != pg {
		t.Fatal("out-of-range worker index should map onto an existing pool")
	}
	if p.Workers() != 2 {
		t.Fatalf("Workers = %d, want 2", p.Workers())
	}
}

func TestZeroWorkerPoolStillWorks(t *testing.T) {
	p := New[*page](0, func() *page { return &page{} })
	if p.Workers() != 1 {
		t.Fatalf("Workers = %d, want 1", p.Workers())
	}
	pg := p.Get(0)
	p.Put(0, pg)
	if p.Get(0) != pg {
		t.Fatal("recycling in single-pool mode failed")
	}
}

func TestConcurrentGetPut(t *testing.T) {
	p, _ := newPool(4, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			held := make([]*page, 0, 16)
			for i := 0; i < 1000; i++ {
				if i%3 == 2 && len(held) > 0 {
					p.Put(worker, held[len(held)-1])
					held = held[:len(held)-1]
					continue
				}
				held = append(held, p.Get(worker))
			}
			for _, pg := range held {
				p.Put(worker, pg)
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	if st.Allocs == 0 || st.Frees == 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if st.LocalPages+st.GlobalPages != st.Frees-(st.Allocs-st.FreshPages) {
		// Every freed page is either in a pool or was re-allocated.
		t.Fatalf("page accounting mismatch: %+v", st)
	}
}

func TestPropertyPoolNeverHandsOutDirtyOrDuplicatePages(t *testing.T) {
	f := func(ops []uint8) bool {
		p, _ := newPool(3, 4)
		out := make(map[*page]bool) // pages currently handed out
		for _, op := range ops {
			worker := int(op) % 3
			if op%2 == 0 {
				pg := p.Get(worker)
				if pg.dirty || out[pg] {
					return false
				}
				out[pg] = true
			} else {
				// return an arbitrary held page
				for pg := range out {
					delete(out, pg)
					p.Put(worker, pg)
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGetNDrainsLocalThenGlobalThenFresh(t *testing.T) {
	p, _ := newPool(2, 8)
	// Seed: 2 pages in worker 0's local pool, 3 in the global pool.
	local := []*page{p.Get(0), p.Get(0)}
	for _, pg := range local {
		p.Put(0, pg)
	}
	p.Prime(3)

	got := p.GetN(0, 7)
	if len(got) != 7 {
		t.Fatalf("GetN returned %d pages, want 7", len(got))
	}
	seen := map[*page]bool{}
	for _, pg := range got {
		if pg == nil || seen[pg] {
			t.Fatal("GetN returned nil or duplicate page")
		}
		seen[pg] = true
	}
	st := p.Stats()
	if st.BulkGets != 1 {
		t.Fatalf("BulkGets = %d, want 1", st.BulkGets)
	}
	if st.LocalHits != 2 || st.GlobalHits != 3 {
		t.Fatalf("hits local=%d global=%d, want 2/3", st.LocalHits, st.GlobalHits)
	}
	if st.LocalPages != 0 || st.GlobalPages != 0 {
		t.Fatalf("pools not drained: %+v", st)
	}
}

func TestGetNZeroAndNegative(t *testing.T) {
	p, _ := newPool(1, 4)
	if got := p.GetN(0, 0); got != nil {
		t.Fatalf("GetN(0) = %v, want nil", got)
	}
	if got := p.GetN(0, -3); got != nil {
		t.Fatalf("GetN(-3) = %v, want nil", got)
	}
	if rt := p.Stats().RoundTrips(); rt != 0 {
		t.Fatalf("RoundTrips = %d, want 0", rt)
	}
}

func TestPutNRejectsDirtyAndSpills(t *testing.T) {
	p, _ := newPool(1, 4)
	pages := p.GetN(0, 8)
	pages[3].dirty = true
	p.PutN(0, pages)
	st := p.Stats()
	if st.BulkPuts != 1 {
		t.Fatalf("BulkPuts = %d, want 1", st.BulkPuts)
	}
	if st.RejectedDirty != 1 || st.Frees != 7 {
		t.Fatalf("rejected=%d frees=%d, want 1/7", st.RejectedDirty, st.Frees)
	}
	// localMax is 4, so the local pool must have spilled to global.
	if st.Rebalances != 1 || st.LocalPages+st.GlobalPages != 7 {
		t.Fatalf("spill bookkeeping wrong: %+v", st)
	}
	// Every clean page must come back out exactly once, clean.
	out := map[*page]bool{}
	for i := 0; i < 7; i++ {
		pg := p.Get(0)
		if pg.dirty || out[pg] {
			t.Fatal("dirty or duplicate page recycled")
		}
		out[pg] = true
	}
}

func TestRoundTripsCountsOpsNotPages(t *testing.T) {
	p, _ := newPool(1, 16)
	pages := p.GetN(0, 10)
	p.PutN(0, pages)
	one := p.Get(0)
	p.Put(0, one)
	st := p.Stats()
	if got := st.RoundTrips(); got != 4 {
		t.Fatalf("RoundTrips = %d, want 4 (GetN+PutN+Get+Put)", got)
	}
	if st.Allocs != 11 || st.Frees != 11 {
		t.Fatalf("page counts wrong: %+v", st)
	}
}

func TestPutNDoesNotMutateCallerSlice(t *testing.T) {
	p, _ := newPool(1, 16)
	pages := p.GetN(0, 5)
	snapshot := append([]*page(nil), pages...)
	pages[1].dirty = true
	pages[4].dirty = true
	p.PutN(0, pages)
	for i := range pages {
		if pages[i] != snapshot[i] {
			t.Fatalf("PutN mutated caller slice at %d", i)
		}
	}
	if st := p.Stats(); st.RejectedDirty != 2 || st.Frees != 3 {
		t.Fatalf("rejected=%d frees=%d, want 2/3", st.RejectedDirty, st.Frees)
	}
}

func TestPutNBurstRespectsLocalMaxBound(t *testing.T) {
	// Merge-sized bursts: a wide hypermerge returns dozens of public pages
	// in one PutN.  The local pool must never retain more than localMax
	// pages after the call — the burst spills to the global pool — and no
	// page may be lost or duplicated across repeated bursts.
	const localMax = 8
	const burst = 64
	const rounds = 3
	p, _ := newPool(2, localMax)
	for round := 1; round <= rounds; round++ {
		pages := p.GetN(0, burst)
		p.PutN(0, pages)
		st := p.Stats()
		// After a spill the local pool holds exactly localMax/2 pages; it
		// must never exceed the bound.
		if st.LocalPages > localMax {
			t.Fatalf("round %d: local pools hold %d pages, bound is %d", round, st.LocalPages, localMax)
		}
		if st.LocalPages != localMax/2 {
			t.Fatalf("round %d: local pool holds %d pages after spill, want %d", round, st.LocalPages, localMax/2)
		}
		if st.GlobalPages != burst-localMax/2 {
			t.Fatalf("round %d: global pool holds %d pages, want %d", round, st.GlobalPages, burst-localMax/2)
		}
		if st.Rebalances != int64(round) {
			t.Fatalf("round %d: Rebalances = %d, want %d (one spill per burst)", round, st.Rebalances, round)
		}
	}
	// Every page must come back out exactly once: the bursts conserved the
	// population across local and global pools.
	seen := map[*page]bool{}
	for _, pg := range p.GetN(0, burst) {
		if seen[pg] {
			t.Fatal("burst spill duplicated a page")
		}
		seen[pg] = true
	}
	if len(seen) != burst {
		t.Fatalf("recovered %d distinct pages, want %d", len(seen), burst)
	}
	if st := p.Stats(); st.FreshPages != burst {
		t.Fatalf("FreshPages = %d, want %d (burst cycling must not allocate)", st.FreshPages, burst)
	}
}

func TestGetNBurstPrefersLocalThenGlobal(t *testing.T) {
	// A bulk fetch must drain the worker's local pool before touching the
	// global pool, and the global pool before allocating fresh pages —
	// each tier under a single lock acquisition.
	const localMax = 8
	p, _ := newPool(2, localMax)
	p.PutN(1, p.GetN(1, 3)) // 3 fresh pages parked in worker 1's local pool
	p.Prime(6)              // then 6 pages into the global pool
	pre := p.Stats()
	_ = p.GetN(1, 12) // 3 local + 6 global + 3 fresh
	st := p.Stats()
	if got := st.LocalHits - pre.LocalHits; got != 3 {
		t.Fatalf("local hits during burst = %d, want 3", got)
	}
	if got := st.GlobalHits - pre.GlobalHits; got != 6 {
		t.Fatalf("global hits during burst = %d, want 6", got)
	}
	if got := st.FreshPages - pre.FreshPages; got != 3 {
		t.Fatalf("fresh pages during burst = %d, want 3", got)
	}
	if st.LocalPages != 0 || st.GlobalPages != 0 {
		t.Fatalf("burst fetch left pages behind: %+v", st)
	}
}

func TestConcurrentBulkBurstsKeepInvariants(t *testing.T) {
	// Merge-sized GetN/PutN bursts from many goroutines: the pool must
	// never hand out a duplicate page, and every local pool stays within
	// its bound once the dust settles.
	const localMax = 4
	const workers = 4
	p, _ := newPool(workers, localMax)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pages := p.GetN(w, 17)
				for _, pg := range pages {
					if pg == nil {
						t.Error("GetN handed out a nil page")
						return
					}
				}
				p.PutN(w, pages)
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	if st.LocalPages > int64(workers*localMax) {
		t.Fatalf("local pools exceed bound after bursts: %+v", st)
	}
	if st.RejectedDirty != 0 {
		t.Fatalf("clean bursts produced dirty rejections: %+v", st)
	}
	if st.Allocs != st.Frees {
		t.Fatalf("page population not conserved: allocs=%d frees=%d", st.Allocs, st.Frees)
	}
}
