package main

import "unsafe"

// The benchmark's two unsafe conversions, one in each direction.  It needs
// them because it calls the word-level entry points the typed handles
// normally hide: Engine.LookupWord, to bypass the handle cache, and the spa
// maps, to price them on their own.

// int64At converts the packed view word Engine.LookupWord returns for an
// Add[int64] reducer into its typed view pointer.
func int64At(word unsafe.Pointer) *int64 {
	//cilkvet:allow unsafeword -- the benchmark's one word-to-*V conversion, the same one reducers.Handle.viewMiss makes: the probes drive Engine.LookupWord directly to bypass the handle cache
	return (*int64)(word)
}

// wordOf is int64At's inverse: the view word the spa maps store for a view
// (or an owner stamp) that lives in an int64 the caller keeps reachable.
func wordOf(v *int64) unsafe.Pointer {
	//cilkvet:allow unsafeword -- the spa probes insert views into a MapSet directly, as the engine does; the int64s outlive the maps
	return unsafe.Pointer(v)
}
