package core

import (
	"fmt"
	"slices"
	"sync"
)

// JobSession is a per-job registration scope over a shared Engine: the
// multi-tenant resident service hands each submitted job one, so reducers a
// tenant registers live exactly as long as the job and are retired in one
// batch when it completes — a tenant cannot leak slots into the shared
// directory, and the reducer's validity flag — cleared before its address
// is released for recycling — guarantees that a stale handle from a finished job never resolves a view belonging
// to whichever job the slot was recycled to.
//
// JobSession implements Engine by delegation, so typed reducer handles and
// experiment code written against Engine work unchanged inside a job; the
// scheduler hooks (BeginTrace, Merge, ...) still run against the shared
// engine the runtime was built with — a JobSession is a registration facade,
// not a second mechanism.
type JobSession struct {
	// Engine is the shared engine every delegated call lands on.
	Engine

	mu sync.Mutex
	// live holds the reducers scoped to the session, in registration order.
	// It starts out over inline, so a job's first eight registrations grow
	// no slice.  A job keeps a handful, so Unregister's search is a short
	// scan, from the end because handles are usually closed last-opened
	// first.
	live    []*Reducer
	inline  [8]*Reducer
	retired bool
}

// NewJobSession creates a registration scope over eng, which must be built
// on Base, as every Engine in this module is: Retire hands the job's
// reducers to Base in one batch.
func NewJobSession(eng Engine) *JobSession {
	return &JobSession{Engine: eng}
}

// Register registers a reducer on the shared engine and scopes it to this
// session: Retire (or the service's job-completion hook) unregisters it.
// After Retire, Register fails — the job is over.
func (js *JobSession) Register(m Monoid) (*Reducer, error) {
	// The engine registers under js.mu, so a Retire that races this call
	// either comes first and refuses it or waits and retires the newcomer.
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.retired {
		return nil, fmt.Errorf("core: Register on retired job session")
	}
	r, err := js.Engine.Register(m)
	if err != nil {
		return nil, err
	}
	if js.live == nil {
		js.live = js.inline[:0]
	}
	js.live = append(js.live, r)
	return r, nil
}

// Unregister retires one session-scoped reducer early.  Unregistering a
// reducer that belongs to another session is forwarded unchanged (the
// shared engine makes double-unregister a no-op).
func (js *JobSession) Unregister(r *Reducer) {
	js.mu.Lock()
	for i := len(js.live) - 1; i >= 0; i-- {
		if js.live[i] == r {
			js.live = slices.Delete(js.live, i, i+1)
			break
		}
	}
	js.mu.Unlock()
	js.Engine.Unregister(r)
}

// Live reports the number of reducers currently scoped to the session.
func (js *JobSession) Live() int {
	js.mu.Lock()
	defer js.mu.Unlock()
	return len(js.live)
}

// Retire unregisters every reducer still scoped to the session and closes
// it to further registration.  Retired reducers keep their final leftmost
// values readable (Engine.Unregister semantics), so a submitter holding the
// job's handles can still read results after the job — and its session —
// are gone.  The reducers go in one batch, under one acquisition of the
// directory's lock.  Retire is idempotent and safe to call concurrently
// with late Register calls from a straggler branch.
func (js *JobSession) Retire() {
	js.mu.Lock()
	if js.retired {
		js.mu.Unlock()
		return
	}
	js.retired = true
	rs := js.live
	js.live = nil
	js.mu.Unlock()
	js.Engine.(interface{ unregisterAll(...*Reducer) }).unregisterAll(rs...)
}
