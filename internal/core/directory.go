package core

import (
	"errors"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/spa"
)

// This file implements the sharded reducer directory: the registry that maps
// SPA slot addresses to live reducers for both engines (the memory-mapped
// mechanism and the hypermap baseline).
//
// The seed funnelled every Register/Unregister/Registered through one
// engine-wide mutex over a map[spa.Addr]*Reducer, and grew TLMM address-space
// reservations inside that lock, so workloads that create reducers
// dynamically (one per key, per request, per graph component) serialised on
// the registry.  The directory removes the global lock:
//
//   - Addresses are striped across a power-of-two number of shards:
//     shard(addr) = addr & mask, local(addr) = addr >> shift, so shard s owns
//     exactly the addresses { local*Shards + s }.  A round-robin cursor
//     spreads registrations, which keeps the address space dense (sequential
//     single-threaded registration yields addresses 0, 1, 2, ...).
//   - Each shard keeps its recycled slots on an intrusive lock-free stack:
//     the head packs a 32-bit version with a 32-bit slot index, the next
//     links live inside the slot entries themselves, and the version bump on
//     every successful CAS defeats ABA — so the common churn path
//     (unregister one reducer, register another) performs no allocation and
//     takes no lock.
//   - Reducer ids are drawn from per-shard sequences (id = seq*Shards +
//     shard + 1), unique across the directory without a shared counter.
//   - The shard's local-index → slot mapping is an RCU-published slice of
//     slot pointers: readers load the published pointer and index it with no
//     lock; growth copies the pointer slice under a per-shard mutex and
//     publishes the new one atomically.  Slot entries never move, so a
//     writer holding a *dirSlot is immune to concurrent growth.
//   - The live count is per-shard (registers minus unregisters), so
//     Registered() sums a handful of counters instead of taking a lock, and
//     steady-state churn touches no shared cache line except the cursor.
//   - Validity is a flag on the reducer itself (Reducer.dir), not a slot
//     lookup: Unregister clears it by compare-and-swap before it vacates
//     the slot and recycles the address, so a recycled address can never
//     satisfy a stale handle and Valid(r) is one load.
//   - When an allocation first touches a new SPA page index, the directory
//     invokes the OnGrow hook outside every shard lock (serialised by a
//     dedicated grow mutex).  The memory-mapped engine uses the hook to
//     reserve TLMM region pages and publish them in an RCU page table, so
//     registering reducer #100,000 neither stalls lookups nor other
//     registrations.

// DirectoryConfig configures a sharded reducer directory.
type DirectoryConfig struct {
	// Shards is the number of registry shards; it is rounded up to a power
	// of two.  Zero selects a default sized from Workers (or GOMAXPROCS
	// when Workers is also zero).
	Shards int
	// Workers is the expected registration parallelism, used only to size
	// the default shard count.
	Workers int
	// OnGrow, if non-nil, is called once per new SPA page index (in
	// ascending order, serialised, outside all shard locks) the first time
	// an allocated address lands on that page.  The memory-mapped engine
	// reserves TLMM address space here.  An error fails the registration
	// that triggered the growth.
	OnGrow func(page int) error
}

// defaultShards sizes the shard count from the requested worker parallelism.
func defaultShards(workers int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := 4 * workers
	if n < 8 {
		n = 8
	}
	if n > 512 {
		n = 512
	}
	return n
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// dirSlot is one registry slot.  The entry is allocated once and never
// moves; the RCU-published slice holds pointers to it, so growth never
// copies slot state.
type dirSlot struct {
	// r is the slot's current occupant, nil while the slot is free.
	r atomic.Pointer[Reducer]
	// nextFree is the intrusive free-stack link: the packed index
	// (local+1, 0 meaning end-of-stack) of the next free slot.  It is
	// written only while this slot sits on the free stack, exclusively by
	// the pusher, but read concurrently by racing poppers, hence atomic.
	nextFree atomic.Uint64
}

// dirShard is one registry shard.  Its hot fields are written only by
// registrations and unregistrations whose addresses stripe to this shard,
// and the struct is padded so neighbouring shards do not false-share.
type dirShard struct {
	// free is the shard's lock-free stack of recycled local slot indices,
	// packed as version<<32 | (local+1); 0 in the low half means empty.
	// The version increments on every successful CAS, so a head popped,
	// recycled and re-pushed between a competitor's load and CAS cannot
	// forge a match (ABA).
	free atomic.Uint64
	// freeLen mirrors the stack depth so diagnostics and tests can observe
	// recycling without walking the stack.
	freeLen atomic.Int64
	// next is the next fresh local slot index.
	next atomic.Uint64
	// idSeq drives this shard's reducer-id sequence.
	idSeq atomic.Uint64
	// slots is the RCU-published local-index → slot mapping.
	slots atomic.Pointer[[]*dirSlot]
	// mu serialises growth of the slots slice (publication stays atomic).
	mu sync.Mutex
	// counters aggregates this shard's registration and contention events.
	// Registers - Unregisters is also the shard's live-reducer count.
	counters metrics.DirectoryCounters

	_ [64]byte
}

// popFree pops a recycled local index, or returns -1 when the shard has
// none.  Lock-free: a failed CAS means another registration raced us, which
// the shard counts as contention.
func (s *dirShard) popFree() int64 {
	for {
		h := s.free.Load()
		idx := uint32(h)
		if idx == 0 {
			return -1
		}
		slot := s.lookup(uint64(idx - 1))
		next := uint32(slot.nextFree.Load())
		if s.free.CompareAndSwap(h, (h>>32+1)<<32|uint64(next)) {
			s.freeLen.Add(-1)
			return int64(idx - 1)
		}
		s.counters.FreeRetries.Add(1)
	}
}

// pushFree returns a local index to the shard's free stack.  The caller
// owns the (vacated) slot, so threading the next link through it is safe.
func (s *dirShard) pushFree(local uint64) {
	slot := s.slot(local)
	for {
		h := s.free.Load()
		slot.nextFree.Store(uint64(uint32(h)))
		if s.free.CompareAndSwap(h, (h>>32+1)<<32|(local+1)) {
			s.freeLen.Add(1)
			return
		}
		s.counters.FreeRetries.Add(1)
	}
}

// slot returns the shard's slot entry for a local index, growing and
// republishing the slot slice if the index is fresh.
func (s *dirShard) slot(local uint64) *dirSlot {
	if arr := s.slots.Load(); arr != nil && local < uint64(len(*arr)) {
		return (*arr)[local]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	arr := s.slots.Load()
	var cur []*dirSlot
	if arr != nil {
		cur = *arr
	}
	if local < uint64(len(cur)) {
		return cur[local]
	}
	n := 2 * len(cur)
	if n < 8 {
		n = 8
	}
	if uint64(n) <= local {
		n = int(local) + 1
	}
	grown := make([]*dirSlot, n)
	copy(grown, cur)
	// One backing array for all new entries: growth costs two allocations
	// regardless of width, instead of one per slot.
	chunk := make([]dirSlot, n-len(cur))
	for i := len(cur); i < n; i++ {
		grown[i] = &chunk[i-len(cur)]
	}
	s.slots.Store(&grown)
	s.counters.SlotGrows.Add(1)
	return grown[local]
}

// lookup returns the slot entry for a local index, or nil if the shard has
// never published it.  Lock-free.
func (s *dirShard) lookup(local uint64) *dirSlot {
	arr := s.slots.Load()
	if arr == nil || local >= uint64(len(*arr)) {
		return nil
	}
	return (*arr)[local]
}

// live returns the shard's live-reducer count.
func (s *dirShard) live() int64 {
	return s.counters.Registers.Load() - s.counters.Unregisters.Load()
}

// Directory is the sharded reducer registry shared by both engines.  The
// read-only routing fields live on their own line; the cursor — the only
// cache line every registration shares — is padded away from them.
type Directory struct {
	shards []dirShard
	mask   uint64
	shift  uint

	// onGrow and the grow state serialise SPA-page growth outside the
	// registration path; grownPages is the lock-free fast-path check.
	onGrow func(page int) error

	_ [64]byte
	// cursor round-robins registrations across shards; combined with the
	// striped address layout it keeps the allocated address range dense.
	cursor     atomic.Uint64
	_          [56]byte
	grownPages atomic.Int64
	_          [56]byte
	growMu     sync.Mutex
}

// NewDirectory creates a sharded directory.
func NewDirectory(cfg DirectoryConfig) *Directory {
	n := cfg.Shards
	if n <= 0 {
		n = defaultShards(cfg.Workers)
	}
	n = ceilPow2(n)
	d := &Directory{
		shards: make([]dirShard, n),
		mask:   uint64(n - 1),
		shift:  uint(bits.TrailingZeros(uint(n))),
		onGrow: cfg.OnGrow,
	}
	return d
}

// Shards returns the number of registry shards.
func (d *Directory) Shards() int { return len(d.shards) }

// Live returns the number of registered reducers by summing the per-shard
// counts.  Lock-free; exact whenever no registration is mid-flight.
func (d *Directory) Live() int {
	var n int64
	for i := range d.shards {
		n += d.shards[i].live()
	}
	return int(n)
}

// addr assembles the global address of a shard-local slot index.
func (d *Directory) addr(shard, local uint64) spa.Addr {
	return spa.Addr(local<<d.shift | shard)
}

// Register allocates a slot and installs a new reducer for the given engine
// and monoid.  The only lock it can take is the grow mutex, and only when
// the allocation is the first to land on a new SPA page.
func (d *Directory) Register(eng Engine, m Monoid) (*Reducer, error) {
	if m.kernel == nil {
		return nil, errors.New("core: nil monoid")
	}
	// The leftmost view is built before an address is taken.  Identity is
	// the caller's code and may panic or return nil; past the pop below
	// only growth can fail, and that hands the address back.
	leftmost := m.identity()
	if leftmost == nil {
		return nil, errors.New("core: monoid Identity returned a nil view")
	}
	r := &Reducer{monoid: m, eng: eng, leftmost: leftmost}
	si := (d.cursor.Add(1) - 1) & d.mask
	s := &d.shards[si]
	var local uint64
	recycled := false
	if idx := s.popFree(); idx >= 0 {
		local = uint64(idx)
		recycled = true
	} else {
		local = s.next.Add(1) - 1
	}
	addr := d.addr(si, local)
	if d.onGrow != nil {
		// Both branches verify growth: a recycled slot normally sits on an
		// already-grown page (one atomic load), but a slot pushed back by a
		// previously failed registration may not.
		if err := d.growToPage(addr.Page()); err != nil {
			// Hand the unused slot back so the address is not leaked.
			s.pushFree(local)
			return nil, err
		}
	}
	if recycled {
		s.counters.Recycles.Add(1)
	} else {
		s.counters.FreshSlots.Add(1)
	}
	slot := s.slot(local)
	// Chaos point for registration races: a Perturb yields between slot
	// acquisition and reducer publication, widening the window in which
	// concurrent registrations, lookups on recycled addresses, and shard
	// growth can interleave with this half-done registration.
	faultinject.Perturb(faultinject.DirectoryRegister)
	// id = seq*Shards + shard + 1: unique across the directory (the shard
	// part distinguishes concurrent sequences) and nonzero.
	r.id = (s.idSeq.Add(1)-1)<<d.shift + si + 1
	r.addr = addr
	r.page = int32(addr.Page())
	r.slot = int32(addr.Slot())
	r.dir.Store(d)
	slot.r.Store(r)
	s.counters.Registers.Add(1)
	return r, nil
}

// growToPage runs the OnGrow hook for every SPA page index up to and
// including page, exactly once per page, in ascending order.  The atomic
// fast path means steady-state registrations never touch the grow mutex
// (one page covers spa.SlotsPerMap addresses).
func (d *Directory) growToPage(page int) error {
	if d.grownPages.Load() > int64(page) {
		return nil
	}
	d.growMu.Lock()
	defer d.growMu.Unlock()
	for d.grownPages.Load() <= int64(page) {
		if err := d.onGrow(int(d.grownPages.Load())); err != nil {
			return err
		}
		d.grownPages.Add(1)
	}
	return nil
}

// Unregister removes r from the directory and recycles its address.  The
// compare-and-swap on r's validity flag is the registry identity check: a
// second Unregister of the same handle, or one for a reducer of another
// directory, fails it and touches nothing, so a double-unregister can never
// delete another live reducer's entry or push a duplicate address onto the
// free list.  The order is the design: the flag is cleared before the slot
// is vacated and the address pushed, so by the time a successor can be
// registered at the address its predecessor already reads invalid, and a
// merge that finds two owners at one address has at most one valid side.
// It returns whether r was live here.
func (d *Directory) Unregister(r *Reducer) bool {
	if r == nil {
		return false
	}
	si := uint64(r.addr) & d.mask
	local := uint64(r.addr) >> d.shift
	s := &d.shards[si]
	if !r.dir.CompareAndSwap(d, nil) {
		s.counters.StaleUnregisters.Add(1)
		return false
	}
	s.lookup(local).r.Store(nil)
	s.counters.Unregisters.Add(1)
	s.pushFree(local)
	return true
}

// Get returns the reducer currently registered at addr, or nil.  Lock-free.
func (d *Directory) Get(addr spa.Addr) *Reducer {
	if addr < 0 {
		return nil
	}
	slot := d.shards[uint64(addr)&d.mask].lookup(uint64(addr) >> d.shift)
	if slot == nil {
		return nil
	}
	return slot.r.Load()
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

// Range calls fn for every live reducer until fn returns false.  It is a
// diagnostic walk: concurrent registrations may or may not be observed.
func (d *Directory) Range(fn func(r *Reducer) bool) {
	for si := range d.shards {
		arr := d.shards[si].slots.Load()
		if arr == nil {
			continue
		}
		for _, slot := range *arr {
			if r := slot.r.Load(); r != nil {
				if !fn(r) {
					return
				}
			}
		}
	}
}

// Stats aggregates the per-shard counters.
func (d *Directory) Stats() metrics.DirectoryStats {
	st := metrics.DirectoryStats{
		Shards:     len(d.shards),
		GrownPages: d.grownPages.Load(),
	}
	for i := range d.shards {
		s := &d.shards[i]
		st.Live += s.live()
		st.Registers += s.counters.Registers.Load()
		st.Recycles += s.counters.Recycles.Load()
		st.FreshSlots += s.counters.FreshSlots.Load()
		st.Unregisters += s.counters.Unregisters.Load()
		st.StaleUnregisters += s.counters.StaleUnregisters.Load()
		st.FreeRetries += s.counters.FreeRetries.Load()
		st.SlotGrows += s.counters.SlotGrows.Load()
		if n := s.freeLen.Load(); n > 0 {
			st.FreeSlots += n
		}
	}
	return st
}
