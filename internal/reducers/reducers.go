// Package reducers is the user-facing reducer library: generics-first
// typed reducers over the untyped reducer engines (the memory-mapped
// mechanism in internal/core and the hypermap baseline in
// internal/hypermap), mirroring the reducer library Cilk Plus ships (add,
// min, max, logical and/or, list append, and so on), plus a small factory
// for choosing the mechanism.
//
// Every reducer kind embeds Handle[V]: a typed monoid (TypedMonoid) is
// built once into the word-level core.Monoid at registration, and every
// update resolves its view through the handle's per-worker typed cache,
// so the steady-state update path performs no interface dispatch, no
// runtime type assertion and no allocation — the paper's
// lookup-as-cheap-as-a-local-variable claim carried all the way to the
// typed API.
package reducers

import (
	"cmp"
	"fmt"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/sched"
)

// Mechanism selects which reducer implementation an engine uses.
type Mechanism int

const (
	// MemoryMapped is the paper's contribution: TLMM-backed SPA maps with
	// thread-local indirection (Cilk-M).
	MemoryMapped Mechanism = iota
	// Hypermap is the Cilk Plus baseline: per-context hash tables.
	Hypermap
)

// String returns the mechanism name.
func (m Mechanism) String() string {
	switch m {
	case MemoryMapped:
		return "memory-mapped"
	case Hypermap:
		return "hypermap"
	default:
		return fmt.Sprintf("mechanism(%d)", int(m))
	}
}

// Mechanisms lists all mechanisms in display order.
func Mechanisms() []Mechanism { return []Mechanism{MemoryMapped, Hypermap} }

// EngineOptions tunes engine construction.
type EngineOptions struct {
	// Timing enables duration measurement of the reduce overheads.
	Timing bool
	// ModelAddressSpace models the paper's per-worker page mapping in the
	// memory-mapped engine (ignored by the hypermap engine; see
	// core.MMConfig).
	ModelAddressSpace bool
}

// NewEngine creates a reducer engine of the requested mechanism sized for
// the given number of workers.
func NewEngine(m Mechanism, workers int, opts EngineOptions) core.Engine {
	switch m {
	case Hypermap:
		return hypermap.New(hypermap.Config{Workers: workers, Timing: opts.Timing})
	default:
		return core.NewMM(core.MMConfig{
			Workers:           workers,
			Timing:            opts.Timing,
			ModelAddressSpace: opts.ModelAddressSpace,
		})
	}
}

// NewSession creates a scheduler session backed by an engine of the
// requested mechanism.
func NewSession(m Mechanism, workers int, opts EngineOptions) *core.Session {
	return core.NewSession(workers, NewEngine(m, workers, opts))
}

// Number is the constraint for arithmetic reducers.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// ---------------------------------------------------------------------------
// Add
// ---------------------------------------------------------------------------

// addMonoid is the typed sum monoid: the view is the number itself.
type addMonoid[T Number] struct{}

func (addMonoid[T]) Identity() *T { return new(T) }
func (addMonoid[T]) Reduce(left, right *T) *T {
	*left += *right
	return left
}

// Add is a sum reducer over a numeric type (the op_add reducer of the Cilk
// Plus library).  Its view type is the number itself, so View hands back a
// *T that updates like a local variable.
type Add[T Number] struct {
	Handle[T]
}

// NewAdd registers a sum reducer with the engine.
func NewAdd[T Number](eng core.Engine) *Add[T] {
	return &Add[T]{Handle: newHandle[T](eng, addMonoid[T]{})}
}

// Add adds v to the local view for the calling context.
func (a *Add[T]) Add(c *sched.Context, v T) { *a.View(c) += v }

// Value returns the reducer's current (leftmost) value.
func (a *Add[T]) Value() T { return *a.Peek() }

// SetValue sets the reducer's value; use it only outside parallel regions.
func (a *Add[T]) SetValue(v T) { a.SetView(&v) }

// ---------------------------------------------------------------------------
// Min / Max
// ---------------------------------------------------------------------------

// Extreme is the view type of the Min and Max reducers: a value plus a flag
// recording whether any value has been supplied yet (the monoid identity is
// the unset view).
type Extreme[T cmp.Ordered] struct {
	Set bool
	Val T
}

type minMonoid[T cmp.Ordered] struct{}

func (minMonoid[T]) Identity() *Extreme[T] { return &Extreme[T]{} }
func (minMonoid[T]) Reduce(left, right *Extreme[T]) *Extreme[T] {
	if right.Set && (!left.Set || right.Val < left.Val) {
		left.Set, left.Val = true, right.Val
	}
	return left
}

type maxMonoid[T cmp.Ordered] struct{}

func (maxMonoid[T]) Identity() *Extreme[T] { return &Extreme[T]{} }
func (maxMonoid[T]) Reduce(left, right *Extreme[T]) *Extreme[T] {
	if right.Set && (!left.Set || right.Val > left.Val) {
		left.Set, left.Val = true, right.Val
	}
	return left
}

// Min is a minimum reducer (op_min).
type Min[T cmp.Ordered] struct {
	Handle[Extreme[T]]
}

// NewMin registers a minimum reducer with the engine.
func NewMin[T cmp.Ordered](eng core.Engine) *Min[T] {
	return &Min[T]{Handle: newHandle[Extreme[T]](eng, minMonoid[T]{})}
}

// Update lowers the local view to v if v is smaller (or the view is unset).
func (m *Min[T]) Update(c *sched.Context, v T) {
	view := m.View(c)
	if !view.Set || v < view.Val {
		view.Set, view.Val = true, v
	}
}

// Value returns the minimum seen so far; ok is false if no value was ever
// supplied.
func (m *Min[T]) Value() (v T, ok bool) {
	view := m.Peek()
	return view.Val, view.Set
}

// Max is a maximum reducer (op_max).
type Max[T cmp.Ordered] struct {
	Handle[Extreme[T]]
}

// NewMax registers a maximum reducer with the engine.
func NewMax[T cmp.Ordered](eng core.Engine) *Max[T] {
	return &Max[T]{Handle: newHandle[Extreme[T]](eng, maxMonoid[T]{})}
}

// Update raises the local view to v if v is larger (or the view is unset).
func (m *Max[T]) Update(c *sched.Context, v T) {
	view := m.View(c)
	if !view.Set || v > view.Val {
		view.Set, view.Val = true, v
	}
}

// Value returns the maximum seen so far; ok is false if no value was ever
// supplied.
func (m *Max[T]) Value() (v T, ok bool) {
	view := m.Peek()
	return view.Val, view.Set
}

// ---------------------------------------------------------------------------
// And / Or
// ---------------------------------------------------------------------------

type andMonoid struct{}

func (andMonoid) Identity() *bool { v := true; return &v }
func (andMonoid) Reduce(left, right *bool) *bool {
	*left = *left && *right
	return left
}

type orMonoid struct{}

func (orMonoid) Identity() *bool { return new(bool) }
func (orMonoid) Reduce(left, right *bool) *bool {
	*left = *left || *right
	return left
}

// And is a logical-AND reducer (op_and) with identity true.
type And struct {
	Handle[bool]
}

// NewAnd registers a logical-AND reducer.
func NewAnd(eng core.Engine) *And {
	return &And{Handle: newHandle[bool](eng, andMonoid{})}
}

// Update ANDs v into the local view.
func (a *And) Update(c *sched.Context, v bool) {
	view := a.View(c)
	*view = *view && v
}

// Value returns the conjunction of every supplied value.
func (a *And) Value() bool { return *a.Peek() }

// Or is a logical-OR reducer (op_or) with identity false.
type Or struct {
	Handle[bool]
}

// NewOr registers a logical-OR reducer.
func NewOr(eng core.Engine) *Or {
	return &Or{Handle: newHandle[bool](eng, orMonoid{})}
}

// Update ORs v into the local view.
func (o *Or) Update(c *sched.Context, v bool) {
	view := o.View(c)
	*view = *view || v
}

// Value returns the disjunction of every supplied value.
func (o *Or) Value() bool { return *o.Peek() }

// ---------------------------------------------------------------------------
// List append
// ---------------------------------------------------------------------------

type listMonoid[T any] struct{}

func (listMonoid[T]) Identity() *[]T { return new([]T) }
func (listMonoid[T]) Reduce(left, right *[]T) *[]T {
	*left = append(*left, *right...)
	return left
}

// List is a list-append reducer (reducer_list_append): the final list
// equals the list a serial execution would build, even though appends occur
// on parallel branches.  List append is associative but not commutative, so
// it exercises the runtime's ordering guarantees.  Its view type is the
// slice itself: PushBack is an append through the cached *[]T.
type List[T any] struct {
	Handle[[]T]
}

// NewList registers a list-append reducer.
func NewList[T any](eng core.Engine) *List[T] {
	return &List[T]{Handle: newHandle[[]T](eng, listMonoid[T]{})}
}

// PushBack appends v to the local view.
func (l *List[T]) PushBack(c *sched.Context, v T) {
	view := l.View(c)
	*view = append(*view, v)
}

// Value returns the reducer's current list.
func (l *List[T]) Value() []T { return *l.Peek() }

// ---------------------------------------------------------------------------
// String concatenation
// ---------------------------------------------------------------------------

type stringMonoid struct{}

func (stringMonoid) Identity() *[]byte { return new([]byte) }
func (stringMonoid) Reduce(left, right *[]byte) *[]byte {
	*left = append(*left, *right...)
	return left
}

// String is a string-concatenation reducer (reducer_basic_string).  The
// view is the byte slice being built.
type String struct {
	Handle[[]byte]
}

// NewString registers a string-concatenation reducer.
func NewString(eng core.Engine) *String {
	return &String{Handle: newHandle[[]byte](eng, stringMonoid{})}
}

// Append appends s to the local view.
func (sr *String) Append(c *sched.Context, s string) {
	view := sr.View(c)
	*view = append(*view, s...)
}

// Value returns the concatenation in serial order.
func (sr *String) Value() string { return string(*sr.Peek()) }

// ---------------------------------------------------------------------------
// Map union
// ---------------------------------------------------------------------------

type mapMonoid[K comparable, V any] struct {
	combine func(V, V) V
}

func (mm mapMonoid[K, V]) Identity() *map[K]V {
	m := make(map[K]V)
	return &m
}

func (mm mapMonoid[K, V]) Reduce(left, right *map[K]V) *map[K]V {
	l, r := *left, *right
	for k, rv := range r {
		if lv, ok := l[k]; ok {
			l[k] = mm.combine(lv, rv)
		} else {
			l[k] = rv
		}
	}
	return left
}

// MapOf is a map-union reducer: values for duplicate keys are combined with
// the supplied function, which must itself be associative for the reducer
// to be deterministic.  The combiner is cached in the handle at
// construction, so Update never re-derives it from the monoid.
type MapOf[K comparable, V any] struct {
	Handle[map[K]V]
	combine func(V, V) V
}

// NewMapOf registers a map-union reducer with the given combiner.
func NewMapOf[K comparable, V any](eng core.Engine, combine func(V, V) V) *MapOf[K, V] {
	return &MapOf[K, V]{
		Handle:  newHandle[map[K]V](eng, mapMonoid[K, V]{combine: combine}),
		combine: combine,
	}
}

// Update merges (k, v) into the local view using the combiner.
func (m *MapOf[K, V]) Update(c *sched.Context, k K, v V) {
	view := *m.View(c)
	if old, ok := view[k]; ok {
		view[k] = m.combine(old, v)
		return
	}
	view[k] = v
}

// Value returns the merged map.
func (m *MapOf[K, V]) Value() map[K]V { return *m.Peek() }

// ---------------------------------------------------------------------------
// Custom monoids
// ---------------------------------------------------------------------------

// CustomOf is a typed reducer over a user-supplied TypedMonoid.  Callers
// mutate the *V returned by View according to their own update semantics.
type CustomOf[V any] struct {
	Handle[V]
}

// NewCustomOf registers a typed reducer for an arbitrary typed monoid.
func NewCustomOf[V any](eng core.Engine, m TypedMonoid[V]) *CustomOf[V] {
	return &CustomOf[V]{Handle: newHandle[V](eng, m)}
}

// Value returns the reducer's current (leftmost) view.
func (cu *CustomOf[V]) Value() *V { return cu.Peek() }

var (
	_ TypedMonoid[int]            = addMonoid[int]{}
	_ TypedMonoid[Extreme[int]]   = minMonoid[int]{}
	_ TypedMonoid[Extreme[int]]   = maxMonoid[int]{}
	_ TypedMonoid[bool]           = andMonoid{}
	_ TypedMonoid[bool]           = orMonoid{}
	_ TypedMonoid[[]int]          = listMonoid[int]{}
	_ TypedMonoid[[]byte]         = stringMonoid{}
	_ TypedMonoid[map[string]int] = mapMonoid[string, int]{}
	_ TypedMonoid[int]            = TypedFuncMonoid[int]{}
)
