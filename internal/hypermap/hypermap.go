package hypermap

import (
	"unsafe"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/spa"
)

// Config configures the hypermap engine.
type Config struct {
	// Workers sizes the per-worker structures: the runtime the engine
	// serves may have at most this many workers.
	Workers int
	// Timing enables duration measurement in the overhead instrumentation.
	Timing bool
}

// HM is the hypermap reducer engine (the Cilk Plus baseline mechanism): the
// core.Skeleton around a chained hash table.  The concrete name matters to
// the typed reducer handles: they capture *HM at construction and call its
// LookupWord directly, mirroring the memory-mapped engine's *core.MM, so
// neither mechanism pays an interface dispatch on a handle-cache miss.
// Everything but the table and its lookup — registration, the miss path,
// view creation, the trace lifecycle, deposits, the merge decisions and
// the counts — is the skeleton the memory-mapped engine shares, so the
// figure comparisons measure the lookup structures rather than two frames.
type HM struct {
	core.Skeleton[*store, *hashTable]
}

// store is the hypermap's view store: the user hypermap of one trace —
// reducer address → view entry — and the trace's zero block.  The table is
// held by value, so the hit reaches the buckets with one load less.
type store struct {
	hashTable
	zero spa.ZeroBlock
}

// Deposit is a deposited hypermap: view transferal in the hypermap scheme
// hands over the trace's table.
type Deposit = core.Deposit[*hashTable]

// New creates a hypermap engine.
func New(cfg Config) *HM {
	e := &HM{}
	core.InitSkeleton(&e.Skeleton, e, "hypermap", cfg.Workers, cfg.Timing,
		func() *store { return &store{hashTable: *newHashTable()} }, newHashTable, releaseTables)
	return e
}

// Name implements core.Engine.
func (e *HM) Name() string { return "Cilk Plus (hypermap)" }

// LookupWord implements core.Engine: a hash-table lookup keyed by the
// reducer's address.  The hit shape is one hash (the baseline's
// characteristic modulo by the bucket count), one bucket-head load and two
// compares: the loop-free probeHead answers when r's entry heads its chain
// (the common case at steady state) and inlines here, so the comparison
// between mechanisms measures the lookup structures (SPA indexing vs
// chained hash) and nothing else.  Every other situation — a below-head
// entry, first touches, recycled addresses, retired handles — takes the
// full chain walk and the skeleton's outlined LookupMiss.  The owner stamp guarantees an entry at a
// recycled address never serves a stale view, as the SPA slot's does.
//
//cilkvet:hotpath
func (e *HM) LookupWord(c *sched.Context, r *core.Reducer, _ uint64, mutable bool) (unsafe.Pointer, bool) {
	if c != nil {
		w := c.Worker()
		ws, ok := w.Local().(*core.Worker[*store])
		if !ok {
			panic(core.ErrForeignRuntime)
		}
		if s := ws.Store.probeHead(r.Addr()); s.FastHit(r.Stamp(), mutable) {
			ws.Tally.Lookups.Hits++
			return s.View(), true
		}
		return e.LookupMiss(w, ws, r, ws.Store.find(r.Addr()), mutable)
	}
	return r.LeftmostView(), false
}

// The store's methods implement core.Store; its Len is the table's.  The
// whole table is one deposit page: transferal swaps its contents with an
// empty pooled table's.
func (st *store) Zero() *spa.ZeroBlock               { return &st.zero }
func (st *store) Insert(r *core.Reducer, s spa.Slot) { st.insert(r.Addr(), s) }
func (st *store) Remove(r *core.Reducer)             { st.remove(r.Addr()) }
func (st *store) Span() int                          { return min(st.n, 1) }
func (st *store) Drop(v *core.Views)                 { st.release(v) }

func (st *store) SwapPages(pages []*hashTable) {
	st.hashTable, *pages[0] = *pages[0], st.hashTable
}

// Merge is the hypermerge: it walks the deposited table and looks up each
// entry in the current one, as the Cilk Plus runtime does.  An adopted
// entry's node moves into the current table as it is; the others stay with
// the deposited table for its next inserts.
func (st *store) Merge(v *core.Views, pages []*hashTable) {
	for _, dt := range pages {
		for b := 0; dt.n > 0; b++ {
			for e := dt.buckets[b]; e != nil; e = dt.buckets[b] {
				cur := st.lookup(e.key)
				var c spa.Slot
				if cur != nil {
					c = cur.slot
				}
				kept := v.Pair(c, e.slot)
				dt.buckets[b] = e.next
				dt.n--
				if cur == nil {
					st.link(e)
				} else {
					cur.slot = kept
					dt.recycle(e)
				}
			}
		}
	}
}

var _ core.Engine = (*HM)(nil)
