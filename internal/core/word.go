package core

import (
	"reflect"
	"sync"
	"unsafe"
)

// This file implements the single-word view representation behind the
// paper's 16-byte SPA slots.
//
// A view is one machine word from Identity to Reduce: the *V a typed monoid
// allocates is stored as an unsafe.Pointer in the SPA slot (or hypermap
// entry) and handed back to the monoid's Reduce as the same word, the way
// both C runtimes call a raw-pointer function stored beside the view.  The
// engines never see V; typedKernel[V], which NewMonoid builds around the
// typed monoid once, is the only place the word is converted to and from
// *V.  No interface value is assembled on any engine path — Go interfaces
// appear only on the cold edge (Reducer.Value, SetValue, WithLeftmost,
// Lookup), through the ordinary conversions any((*V)(word)) and v.(*V),
// which the compiler type-checks.
//
// Safety argument for the garbage collector: a view word is a pointer the
// monoid's Identity (or Reduce) returned, or a block of the per-worker view
// arena.  SPA slots, hypermap entries and arena free lists store these
// words as unsafe.Pointer in ordinary Go structs and slices, so the
// collector scans them and keeps both the views and (through interior
// pointers) their backing arena chunks alive.  No pointer is ever
// round-tripped through a uintptr variable; the only pointer arithmetic is
// unsafe.Add on the owner stamp's flag bits (see package spa), which
// `go vet -unsafeptr` accepts.

// Monoid defines a reducer's algebra — an associative binary operation with
// an identity — in the form the engines run it: operations on view words.
// Reduce may update and return its left argument in place; the runtime
// always passes the serially-earlier view on the left, so in-place
// reduction preserves the serial semantics.  NewMonoid is the only
// constructor; the zero Monoid is the "nil monoid" Register rejects.
type Monoid struct {
	kernel
	// arenaClass is the arena size class of the view type, or -1 when its
	// views stay on the heap path.
	arenaClass int8
	// zeroIdentity reports that the view type is arena-eligible and its
	// identity is the zero value, so a read-only first lookup may be served
	// the trace's zero block (spa.ZeroBlock) instead of a view.
	zeroIdentity bool
}

// kernel is the word-level form of one typed monoid: one object per Monoid
// (a typedKernel, or an arenaKernel around one).  A typed monoid of size
// zero — every prebuilt reducer's — has one kernel per type, built by the
// first NewMonoid and shared by every later one, so registering such a
// reducer allocates no kernel.
type kernel interface {
	// identity allocates a fresh identity view on the heap.
	identity() unsafe.Pointer
	// seed writes a complete identity view over the arena block at p, which
	// may still hold a dead prior view.  Arena-eligible view types only.
	seed(p unsafe.Pointer)
	// reduce combines two views, left serially preceding right, and returns
	// the combined view (commonly left, updated in place).
	reduce(left, right unsafe.Pointer) unsafe.Pointer
	// box and unbox convert between a view word and the *V inside an
	// interface value, for callers without a typed handle.
	box(word unsafe.Pointer) any
	unbox(v any) unsafe.Pointer
}

// typed is the algebra over a concrete view type that NewMonoid accepts
// (reducers.TypedMonoid has this method set).
type typed[V any] interface {
	Identity() *V
	Reduce(left, right *V) *V
}

// typedKernel closes a typed monoid over view words.  Its methods are the
// audited conversions between a view word and *V.
type typedKernel[V any] struct{ m typed[V] }

func (k *typedKernel[V]) identity() unsafe.Pointer { return unsafe.Pointer(k.m.Identity()) }
func (k *typedKernel[V]) seed(unsafe.Pointer)      { panic("core: seed of a heap-path view") }
func (k *typedKernel[V]) reduce(left, right unsafe.Pointer) unsafe.Pointer {
	return unsafe.Pointer(k.m.Reduce((*V)(left), (*V)(right)))
}
func (k *typedKernel[V]) box(word unsafe.Pointer) any { return (*V)(word) }
func (k *typedKernel[V]) unbox(v any) unsafe.Pointer  { return unsafe.Pointer(v.(*V)) }

// arenaKernel is the kernel of an arena-eligible view type: it adds the
// identity value seed copies (the identity element is unique, so a copy is
// an Identity call).  By value, so a first lookup reads it off the line the
// dispatch touched; heap-path kernels carry no V, which for a large
// pointer-holding view the collector would scan per registered reducer.
type arenaKernel[V any] struct {
	typedKernel[V]
	id V
}

func (k *arenaKernel[V]) seed(p unsafe.Pointer) { *(*V)(p) = k.id }

// NewMonoid builds the word-level monoid of a typed one.  Arena eligibility
// is decided here, from V alone: a fixed-size, pointer-free V that fits a
// size class has its identity value captured once, and the memory-mapping
// engine then builds and recycles such views inside its per-worker arenas.
// Whether that captured identity is V's zero value (Add's 0, Or's false,
// but not And's true) is decided here too, once: both engines then serve a
// read-only first lookup the trace's zero block.
//
// A typed monoid of size zero carries no state, so its word-level form
// depends on its type alone: the first call for that type builds it and
// every later one returns the same Monoid, as OpenCilk's registration
// stores a reducer type's static identity and reduce pointers and builds
// nothing.  A monoid with state (reducers.TypedFuncMonoid's closures) is
// built anew on every call.
func NewMonoid[V any](m typed[V]) Monoid {
	t := reflect.TypeOf(m)
	if t == nil || t.Size() != 0 {
		return buildMonoid(m)
	}
	if mo, ok := zeroSizeMonoids.Load(t); ok {
		return mo.(Monoid)
	}
	mo, _ := zeroSizeMonoids.LoadOrStore(t, buildMonoid(m))
	return mo.(Monoid)
}

// zeroSizeMonoids maps the dynamic type of each zero-size typed monoid
// NewMonoid has seen to its one Monoid.
var zeroSizeMonoids sync.Map // reflect.Type → Monoid

// buildMonoid is NewMonoid without the sharing.
func buildMonoid[V any](m typed[V]) Monoid {
	if t := reflect.TypeFor[V](); pointerFree(t) {
		if class := ArenaClassFor(t.Size()); class >= 0 {
			if id := m.Identity(); id != nil {
				zero := reflect.ValueOf(id).Elem().IsZero()
				return Monoid{&arenaKernel[V]{typedKernel[V]{m}, *id}, int8(class), zero}
			}
		}
	}
	return Monoid{&typedKernel[V]{m}, -1, false}
}

// pointerFree reports whether a value of type t contains no pointers, so
// its views may live in arena memory the garbage collector does not scan.
// The check is conservative: anything not provably pointer-free (slices,
// maps, strings, interfaces, channels, pointers, functions) stays on the
// heap path.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// ownerWord encodes r as the owner-stamp word stored in an SPA slot's
// second word (package spa tags its low bits with the slot flags).  The
// stamp is an ordinary pointer to the Reducer, so slots keep their owners
// alive and the collector relocates nothing behind our back.  Every
// stamping site must use this helper: it is the one audited conversion of
// a reducer into its word form, and reducerOf is its only inverse.
func ownerWord(r *Reducer) unsafe.Pointer {
	return unsafe.Pointer(r)
}

// Stamp returns r's owner stamp (ownerWord): what a view store outside
// this package compares an entry's stamp against on its lookup hit.
func (r *Reducer) Stamp() unsafe.Pointer { return ownerWord(r) }

// reducerOf decodes an owner-stamp word produced by ownerWord.  The spa
// accessors strip the flag bits before the word gets here, so the result
// is the exact pointer ownerWord stored (or nil for an empty slot).
func reducerOf(word unsafe.Pointer) *Reducer {
	return (*Reducer)(word)
}
