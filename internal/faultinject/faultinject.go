package faultinject

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
)

// ID names one compiled-in failpoint.
type ID uint32

// The runtime's named failpoints.  Adding one here and calling Enabled() +
// one of the injection helpers at the site is all a new layer needs.
const (
	// SchedSteal perturbs a worker's steal sweep (internal/sched.trySteal).
	SchedSteal ID = iota
	// SchedPark perturbs the pre-park decision (internal/sched parking).
	SchedPark
	// PagepoolGetN injects exhaustion into pagepool.Pool.TryGetN (the bulk
	// fetch view transferal depends on).
	PagepoolGetN
	// TLMMGrow fails the modelled TLMM region's growth for a fresh SPA page
	// (internal/core's growReducerPage, under ModelAddressSpace), surfacing
	// as a Register error.
	TLMMGrow
	// DirectoryRegister perturbs a directory registration between taking
	// the address and publishing the reducer, widening the
	// registration/unregistration race window.
	DirectoryRegister
	// MonoidIdentity panics identity-view creation (core.Views.newView).
	MonoidIdentity
	// MonoidReduce panics a monoid Reduce call inside the hypermerge
	// (both engines' merge paths).
	MonoidReduce
	// EndTraceTransfer fails view transferal right after the public pages
	// have been fetched from the pool, modelling a failure while publishing
	// a deposit: the engine must hand the fetched pages straight back, drop
	// the trace's private views, and unwind.
	EndTraceTransfer
	// ServiceAdmit fails admission into the resident service's bounded
	// queue (sched.Service.Submit), modelling an enqueue-time resource
	// failure: Submit returns the injected *Fault and the job is never
	// queued.
	ServiceAdmit
	// ServiceDispatch perturbs the moment an idle worker takes a queued job
	// off the service's admission queue, skewing dispatch order and the
	// dispatch/cancellation race without changing any result.
	ServiceDispatch
	// ServiceDeadline perturbs deadline/cancellation firing for a service
	// job: the window between a deadline (or caller cancellation) marking
	// the job cancelled and the handle completing is stretched, widening
	// the cancel-vs-finish race.
	ServiceDeadline
	// ServiceDrain perturbs Service.Close between the stop-admission
	// barrier and the drain wait, widening the Submit-racing-Close window.
	ServiceDrain
	// SchedForceSteal makes a Fork run its continuation as a stolen task on
	// the forking worker (internal/sched.forkForced), Cilk's force_reduce:
	// view creation, transferal and a hypermerge at every fork that fires,
	// with no second CPU needed.  It changes no result.
	SchedForceSteal
	numIDs
)

// String returns the failpoint's stable name (used in chaos reports).
func (id ID) String() string {
	switch id {
	case SchedSteal:
		return "sched/steal"
	case SchedPark:
		return "sched/park"
	case PagepoolGetN:
		return "pagepool/getn"
	case TLMMGrow:
		return "tlmm/grow"
	case DirectoryRegister:
		return "directory/register"
	case MonoidIdentity:
		return "monoid/identity"
	case MonoidReduce:
		return "monoid/reduce"
	case EndTraceTransfer:
		return "endtrace/transfer"
	case ServiceAdmit:
		return "service/admit"
	case ServiceDispatch:
		return "service/dispatch"
	case ServiceDeadline:
		return "service/deadline"
	case ServiceDrain:
		return "service/drain"
	case SchedForceSteal:
		return "sched/force-steal"
	default:
		return fmt.Sprintf("failpoint(%d)", uint32(id))
	}
}

// IDs returns every compiled-in failpoint, in declaration order.
func IDs() []ID {
	out := make([]ID, numIDs)
	for i := range out {
		out[i] = ID(i)
	}
	return out
}

// ErrInjected is the sentinel every injected fault wraps, so callers can
// classify an error (or a contained panic value) as chaos-made with
// errors.Is regardless of which failpoint produced it.
var ErrInjected = errors.New("faultinject: injected fault")

// Fault is the concrete error/panic value an injection produces.  It
// survives the scheduler's panic containment intact (the job boundary wraps
// it, never stringifies it), so chaos tests assert on the typed value.
type Fault struct {
	// ID is the failpoint that fired.
	ID ID
	// Hit is the 1-based ordinal of the firing hit at that failpoint.
	Hit uint64
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: %v fired (hit %d)", f.ID, f.Hit)
}

// Unwrap links every Fault to ErrInjected.
func (f *Fault) Unwrap() error { return ErrInjected }

// Rule arms one failpoint inside a Plan.
type Rule struct {
	// Prob is the probability in (0, 1] that an eligible hit fires.  Zero
	// arms nothing (the rule is ignored).
	Prob float64
	// After skips the first After hits entirely (they are not eligible).
	After uint64
	// Limit caps the number of firing hits; zero means unlimited.
	Limit uint64
}

// Plan is a seeded chaos schedule: which failpoints are armed and how.
// Build one with NewPlan + Arm, then Activate it.  A Plan must not be armed
// after activation.
type Plan struct {
	seed  uint64
	rules [numIDs]Rule
	state [numIDs]siteState
}

type siteState struct {
	hits  atomic.Uint64
	fires atomic.Uint64
	_     [48]byte // keep concurrent sites off each other's line
}

// NewPlan creates an empty plan for the given seed (zero selects a fixed
// default so the zero seed is still deterministic).
func NewPlan(seed uint64) *Plan {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Plan{seed: seed}
}

// Seed returns the plan's seed.
func (p *Plan) Seed() uint64 { return p.seed }

// Arm installs a rule for one failpoint and returns the plan for chaining.
func (p *Plan) Arm(id ID, r Rule) *Plan {
	p.rules[id] = r
	return p
}

// Hits returns how many times the failpoint was evaluated under this plan.
func (p *Plan) Hits(id ID) uint64 { return p.state[id].hits.Load() }

// Fires returns how many evaluations of the failpoint fired.
func (p *Plan) Fires(id ID) uint64 { return p.state[id].fires.Load() }

// fire decides one hit.  The decision hashes (seed, id, hit ordinal), so a
// replay with the same plan makes the same per-ordinal decisions.
func (p *Plan) fire(id ID) (uint64, bool) {
	r := &p.rules[id]
	if r.Prob <= 0 {
		return 0, false
	}
	hit := p.state[id].hits.Add(1)
	if hit <= r.After {
		return 0, false
	}
	x := splitmix64(p.seed ^ (uint64(id)+1)*0xA24BAED4963EE407 ^ hit*0x9FB21C651E98DF25)
	// Top 53 bits → uniform float in [0, 1).
	if float64(x>>11)/(1<<53) >= r.Prob {
		return 0, false
	}
	// The CAS-free Add keeps the counter exact; a racing hit that lands
	// past the limit simply declines after the fact.
	if fired := p.state[id].fires.Add(1); r.Limit > 0 && fired > r.Limit {
		p.state[id].fires.Add(^uint64(0)) // decrement: this hit declined
		return 0, false
	}
	return hit, true
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche over the packed (seed, site, ordinal) word.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// active is the process-wide activated plan; nil while chaos is off.  One
// global (rather than per-engine) keeps the disabled fast path to a single
// atomic pointer load at every site, including sites in leaf packages
// (pagepool) that have no engine back-pointer.
var active atomic.Pointer[Plan]

// Enabled reports whether a chaos plan is active.  This is the whole cost a
// failpoint pays in production: one atomic load and one predicted branch.
func Enabled() bool { return active.Load() != nil }

// Activate installs the plan and returns a deactivation function.  Exactly
// one plan may be active at a time; activating over a live plan panics, so
// chaos tests that forget to serialise fail loudly instead of corrupting
// each other's determinism.
func Activate(p *Plan) (deactivate func()) {
	if p == nil {
		panic("faultinject: Activate(nil)")
	}
	if !active.CompareAndSwap(nil, p) {
		panic("faultinject: a plan is already active")
	}
	return func() { active.CompareAndSwap(p, nil) }
}

// Fire reports whether failpoint id fires at this hit.  Sites with bespoke
// failure shapes use it directly; most go through Error, Check or Perturb.
func Fire(id ID) bool {
	p := active.Load()
	if p == nil {
		return false
	}
	_, ok := p.fire(id)
	return ok
}

// Error returns an injected *Fault when id fires, nil otherwise.
func Error(id ID) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	if hit, ok := p.fire(id); ok {
		return &Fault{ID: id, Hit: hit}
	}
	return nil
}

// Check panics with an injected *Fault when id fires.  It models failures
// that arrive as panics (a monoid blowing up mid-merge); the scheduler's
// job-boundary containment turns the panic into an error without erasing
// the *Fault value.
func Check(id ID) {
	p := active.Load()
	if p == nil {
		return
	}
	if hit, ok := p.fire(id); ok {
		panic(&Fault{ID: id, Hit: hit})
	}
}

// Perturb yields the processor when id fires, perturbing the goroutine
// interleaving at a scheduling decision point without changing any result.
// It reports whether it fired so callers can additionally skew a local
// decision (e.g. abandon a steal sweep).
func Perturb(id ID) bool {
	p := active.Load()
	if p == nil {
		return false
	}
	if _, ok := p.fire(id); ok {
		runtime.Gosched()
		return true
	}
	return false
}
