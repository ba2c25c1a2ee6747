package core_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// TestDoubleUnregisterAfterReuseBothEngines is the regression test for the
// seed MM bug: Unregister did not verify registry identity, so a second
// Unregister of a stale handle after slot reuse deleted the new occupant's
// entry and pushed a duplicate address onto the free list.
func TestDoubleUnregisterAfterReuseBothEngines(t *testing.T) {
	for name, eng := range engines(1) {
		t.Run(name, func(t *testing.T) {
			r1, err := eng.Register(sumMonoid)
			if err != nil {
				t.Fatalf("Register: %v", err)
			}
			eng.Unregister(r1)
			r2, _ := eng.Register(sumMonoid)
			if r2.Addr() != r1.Addr() {
				t.Fatalf("slot not recycled: got %d, want %d", r2.Addr(), r1.Addr())
			}
			// The stale double-unregister: with the seed registry this
			// deleted r2's entry and freed its address a second time.
			eng.Unregister(r1)
			if got := eng.Registered(); got != 1 {
				t.Fatalf("Registered after stale Unregister = %d, want 1", got)
			}
			// No duplicate address may have entered the free list: the next
			// registration must not alias r2's live slot.
			r3, _ := eng.Register(sumMonoid)
			if r3.Addr() == r2.Addr() {
				t.Fatalf("live address %d handed out twice", r2.Addr())
			}
			// r2 must still function normally.
			s := core.NewSession(1, eng)
			defer s.Close()
			if err := s.Run(func(c *sched.Context) {
				core.Lookup(eng, c, r2).(*sumView).v += 5
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := r2.Value().(*sumView).v; got != 5 {
				t.Fatalf("r2 value = %d, want 5", got)
			}
		})
	}
}

// TestUnregisterReRegisterInsideRunningTrace retires a reducer mid-run,
// recycles its slot to a new reducer, and checks that the new reducer never
// observes the old cached view or the old private-slot view: the retired
// reducer's in-flight updates are dropped, not leaked into the new
// registration.
func TestUnregisterReRegisterInsideRunningTrace(t *testing.T) {
	for name, eng := range engines(1) {
		t.Run(name, func(t *testing.T) {
			s := core.NewSession(1, eng)
			defer s.Close()
			r1, _ := eng.Register(sumMonoid)
			var r2 *core.Reducer
			if err := s.Run(func(c *sched.Context) {
				// Install and warm r1's view (and the per-worker handle cache).
				for i := 0; i < 50; i++ {
					core.Lookup(eng, c, r1).(*sumView).v++
				}
				eng.Unregister(r1)
				var err error
				r2, err = eng.Register(sumMonoid)
				if err != nil {
					t.Errorf("re-Register: %v", err)
					return
				}
				if r2.Addr() != r1.Addr() {
					t.Errorf("slot not recycled inside trace: got %d, want %d", r2.Addr(), r1.Addr())
					return
				}
				// The recycled slot must not serve r1's cached or private
				// view: r2 starts from a fresh identity view.
				v2 := core.Lookup(eng, c, r2).(*sumView)
				if v2.v != 0 {
					t.Errorf("recycled slot leaked a view with value %d", v2.v)
					return
				}
				v2.v += 7
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := r2.Value().(*sumView).v; got != 7 {
				t.Fatalf("r2 value = %d, want 7 (old view leaked into the merge?)", got)
			}
			// r1's in-flight updates were dropped at unregistration; its
			// leftmost view stays at the identity.
			if got := r1.Value().(*sumView).v; got != 0 {
				t.Fatalf("retired r1 value = %d, want 0", got)
			}
			// A lookup through a retired handle serves the frozen value
			// rather than creating views.
			if err := s.Run(func(c *sched.Context) {
				if got := core.Lookup(eng, c, r1).(*sumView).v; got != 0 {
					t.Errorf("retired-handle lookup = %d, want 0", got)
				}
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

// TestRetiredHandleLookupDoesNotClobberLiveView looks up a retired handle
// whose address has been recycled to a live reducer, in a context where the
// live reducer already holds a view: the stale lookup must neither return
// nor disturb the live occupant's view.
func TestRetiredHandleLookupDoesNotClobberLiveView(t *testing.T) {
	for name, eng := range engines(1) {
		t.Run(name, func(t *testing.T) {
			s := core.NewSession(1, eng)
			defer s.Close()
			r1, _ := eng.Register(sumMonoid)
			eng.Unregister(r1)
			r2, _ := eng.Register(sumMonoid)
			if r2.Addr() != r1.Addr() {
				t.Fatalf("slot not recycled: got %d, want %d", r2.Addr(), r1.Addr())
			}
			if err := s.Run(func(c *sched.Context) {
				core.Lookup(eng, c, r2).(*sumView).v = 41
				// The stale handle shares r2's address but must not reach
				// r2's view.
				if got := core.Lookup(eng, c, r1).(*sumView).v; got != 0 {
					t.Errorf("stale-handle lookup = %d, want 0", got)
				}
				core.Lookup(eng, c, r2).(*sumView).v++
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := r2.Value().(*sumView).v; got != 42 {
				t.Fatalf("r2 value = %d, want 42", got)
			}
		})
	}
}

// panicIdentityMonoid is a broken tenant monoid: building its identity view
// panics.  (*sumView is heap-path, so NewMonoid does not call Identity for
// an arena seed: the panic happens inside Register.)
var panicIdentityMonoid = core.NewMonoid(reducers.TypedFuncMonoid[sumView]{
	IdentityFn: func() *sumView { panic("identity boom") },
	ReduceFn:   func(l, r *sumView) *sumView { return l }})

// TestPanickingIdentityLeaksNoAddressBothEngines registers a monoid whose
// Identity panics.  Register builds the leftmost view before it takes an
// address, so the failures must leave the directory exactly as it was: the
// one recycled address is still the next one handed out and no fresh slot
// was minted.  (Taking the address first lost one per failed Register — in
// the resident service, one per job of a broken tenant, for ever.)
func TestPanickingIdentityLeaksNoAddressBothEngines(t *testing.T) {
	for name, eng := range engines(1) {
		t.Run(name, func(t *testing.T) {
			stats := eng.(interface {
				DirectoryStats() metrics.DirectoryStats
			}).DirectoryStats
			r1, err := eng.Register(sumMonoid)
			if err != nil {
				t.Fatalf("Register: %v", err)
			}
			eng.Unregister(r1)
			before := stats()
			const failures = 3
			for i := 0; i < failures; i++ {
				func() {
					defer func() {
						if recover() == nil {
							t.Error("Register with a panicking Identity returned normally")
						}
					}()
					_, _ = eng.Register(panicIdentityMonoid)
				}()
			}
			if after := stats(); after.FreeSlots != before.FreeSlots || after.FreshSlots != before.FreshSlots {
				t.Errorf("failed registrations moved the directory: FreeSlots %d → %d, FreshSlots %d → %d",
					before.FreeSlots, after.FreeSlots, before.FreshSlots, after.FreshSlots)
			}
			if got := eng.Registered(); got != 0 {
				t.Errorf("Registered after failed registrations = %d, want 0", got)
			}
			r2, err := eng.Register(sumMonoid)
			if err != nil {
				t.Fatalf("Register after failures: %v", err)
			}
			if r2.Addr() != r1.Addr() {
				t.Errorf("next registration landed on address %d, want the recycled %d", r2.Addr(), r1.Addr())
			}
			if after := stats(); after.FreshSlots != before.FreshSlots {
				t.Errorf("FreshSlots %d → %d: an address was minted although one was free",
					before.FreshSlots, after.FreshSlots)
			}
			if got := eng.Registered(); got != 1 {
				t.Errorf("Registered = %d, want 1", got)
			}
		})
	}
}

// TestRetireIsOneBatch: retiring a job's reducers is one batch under the
// directory's lock, however many reducers the job registered.  A second
// Retire, or an Unregister of a retired reducer, changes nothing but the
// stale-unregister count.
func TestRetireIsOneBatch(t *testing.T) {
	for name, eng := range engines(2) {
		t.Run(name, func(t *testing.T) {
			s := core.NewSession(2, eng)
			defer s.Close()
			dir := eng.(interface{ DirectoryStats() metrics.DirectoryStats })
			js := core.NewJobSession(eng)
			rs := make([]*core.Reducer, 8)
			for i := range rs {
				r, err := js.Register(sumMonoid)
				if err != nil {
					t.Fatalf("Register: %v", err)
				}
				rs[i] = r
			}
			js.Retire()
			st := dir.DirectoryStats()
			if js.Live() != 0 || eng.Registered() != 0 || st.Unregisters != 8 || st.StaleUnregisters != 0 {
				t.Errorf("after Retire: %d live in the session, %d registered, %+v", js.Live(), eng.Registered(), st)
			}
			js.Retire()
			js.Unregister(rs[3])
			eng.Unregister(rs[5])
			if st := dir.DirectoryStats(); eng.Registered() != 0 || st.Unregisters != 8 || st.StaleUnregisters != 2 {
				t.Errorf("after the no-ops: %d registered, %+v; want 8 unregisters and 2 stale", eng.Registered(), st)
			}
		})
	}
}

// TestRegisterRacingRetire: four goroutines register 8 reducers each, past
// the session's inline capacity, while the session is retired.  A
// registration either fails because the session is retired or is retired
// with the batch: every reducer the directory registered is unregistered
// exactly once, and none stays scoped to the session.
func TestRegisterRacingRetire(t *testing.T) {
	for name, eng := range engines(1) {
		t.Run(name, func(t *testing.T) {
			dir := eng.(interface{ DirectoryStats() metrics.DirectoryStats })
			js := core.NewJobSession(eng)
			var wg sync.WaitGroup
			var registered atomic.Int64
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 8; i++ {
						if _, err := js.Register(sumMonoid); err == nil {
							registered.Add(1)
						}
					}
				}()
			}
			js.Retire()
			wg.Wait()
			st := dir.DirectoryStats()
			if n := registered.Load(); st.Registers != n || st.Unregisters != n || st.StaleUnregisters != 0 || eng.Registered() != 0 || js.Live() != 0 {
				t.Errorf("%d registrations succeeded; directory %+v, %d registered, %d live in the session", n, st, eng.Registered(), js.Live())
			}
		})
	}
}
