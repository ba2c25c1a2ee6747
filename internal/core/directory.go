package core

import (
	"errors"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/spa"
)

// This file implements the reducer directory: the registry that hands every
// reducer of either engine (the memory-mapped mechanism and the hypermap
// baseline) its dense, recyclable SPA slot address — the paper's tlmm_addr,
// which a lookup indexes into the worker's view array.
//
// Registration is a cold operation: a job registers its reducers once and no
// lookup or merge ever consults the directory's tables.  So the directory is
// what OpenCilk's reducer registration is, one table insert: a single mutex
// over a LIFO free list of recycled addresses, a cursor for never-used ones,
// an id counter and plain counters.
//
//   - Recycled addresses are reused last-in first-out, so the address range
//     stays as dense as the peak live count: a goroutine that registers and
//     unregisters one reducer in a loop gets the same address every time.
//   - Validity is a flag on the reducer itself (Reducer.dir), not a table
//     entry: Unregister clears it by compare-and-swap before it puts the
//     address back on the free list, so a recycled address can never satisfy
//     a stale handle, and Valid(r) is one load with no lock.
//   - When a never-used address is the first on a new SPA page, Register
//     calls the OnGrow hook under the lock, once per page in ascending order
//     (the memory-mapped engine models TLMM region growth there).  An error
//     fails that registration without consuming the address, so every
//     address on the free list lies on a page that has been grown.
//
// The directory also holds the engine's leftmost lock, which registration
// never takes: an engine has exactly one directory, and every reducer is
// made here, so here is where each reducer gets its pointer to the lock.

// Directory is the reducer registry shared by both engines.
type Directory struct {
	// onGrow, if non-nil, is called with each new SPA page index the first
	// time a fresh address lands on it.  An error fails the registration.
	onGrow func(page int) error

	mu sync.Mutex
	// free holds the recycled addresses; the last one pushed is reused first.
	free []spa.Addr
	// next is the lowest address never handed out, and grown the number of
	// SPA pages it has reached: OnGrow has run for pages 0 … grown−1.
	next  spa.Addr
	grown int
	// n holds the registration counters in the shape Stats reports them;
	// Stats fills in the derived fields.
	n metrics.DirectoryStats

	// leftmostMu is the engine's leftmost lock, one per engine because an
	// engine has one directory.  It guards every write of every leftmost
	// view of the directory's reducers: Reducer.SetValue, WithLeftmost and
	// the root merges, each of which takes it once per deposit.  Reads of a
	// leftmost word take no lock.  Register gives each reducer a pointer to
	// it, so a retired reducer still finds it.
	leftmostMu sync.Mutex
}

// NewDirectory creates a directory.  onGrow may be nil.
func NewDirectory(onGrow func(page int) error) *Directory {
	return &Directory{onGrow: onGrow}
}

// Live returns the number of registered reducers.
func (d *Directory) Live() int { return int(d.Stats().Live) }

// Register takes an address and installs a new reducer for the given engine
// and monoid.
func (d *Directory) Register(eng Engine, m Monoid) (*Reducer, error) {
	if m.kernel == nil {
		return nil, errors.New("core: nil monoid")
	}
	// The leftmost view is built before an address is taken.  Identity is
	// the caller's code and may panic or return nil; past this point only
	// growth can fail, and that consumes no address.
	leftmost := m.identity()
	if leftmost == nil {
		return nil, errors.New("core: monoid Identity returned a nil view")
	}
	r := &Reducer{monoid: m, eng: eng, leftmostMu: &d.leftmostMu, leftmost: leftmost}
	addr, id, err := d.take()
	if err != nil {
		return nil, err
	}
	// Chaos point for registration races: a Perturb yields between taking
	// the address and publishing the reducer, widening the window in which
	// concurrent registrations, unregistrations and lookups on a recycled
	// address interleave with this half-done registration.
	faultinject.Perturb(faultinject.DirectoryRegister)
	r.id = id
	r.addr = addr
	r.page = int32(addr.Page())
	r.slot = int32(addr.Slot())
	r.dir.Store(d)
	return r, nil
}

// take pops a recycled address, or else hands out the next fresh one,
// growing a new SPA page first when the address is the page's first.  The
// reducer's id is the registration count: unique and nonzero.
func (d *Directory) take() (spa.Addr, uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var addr spa.Addr
	if n := len(d.free); n > 0 {
		addr = d.free[n-1]
		d.free = d.free[:n-1]
		d.n.Recycles++
	} else {
		addr = d.next
		if addr.Page() == d.grown {
			if d.onGrow != nil {
				if err := d.onGrow(d.grown); err != nil {
					return 0, 0, err
				}
			}
			d.grown++
		}
		d.next++
		d.n.FreshSlots++
	}
	d.n.Registers++
	return addr, uint64(d.n.Registers), nil
}

// Unregister removes each of rs from the directory and recycles its
// address, under one acquisition of the lock; nil entries are skipped.  The
// compare-and-swap on a reducer's validity flag is the registry identity
// check: a second Unregister of the same handle, or one for a reducer of
// another directory, fails it, counts a stale unregister and touches
// nothing else, so a double-unregister can never push a live address onto
// the free list.  The order is the design: the flag is cleared before the
// address is pushed, so by the time a successor can be registered at the
// address its predecessor already reads invalid, and a merge that finds two
// owners at one address has at most one valid side.
func (d *Directory) Unregister(rs ...*Reducer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range rs {
		if r == nil {
			continue
		}
		if !r.dir.CompareAndSwap(d, nil) {
			d.n.StaleUnregisters++
			continue
		}
		d.n.Unregisters++
		d.free = append(d.free, r.addr)
	}
}

// Valid reports whether r is still the live registration for its address
// in this directory: one load of the reducer's validity flag.  A handle
// kept across Unregister fails the check even after its address has been
// recycled to a new reducer, and so does a reducer of another directory.
//
//cilkvet:hotpath
func (d *Directory) Valid(r *Reducer) bool {
	return r != nil && r.dir.Load() == d
}

// Stats returns a snapshot of the directory's counters.
func (d *Directory) Stats() metrics.DirectoryStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.n
	st.Live = st.Registers - st.Unregisters
	st.FreeSlots = int64(len(d.free))
	st.GrownPages = int64(d.grown)
	return st
}
