package a

type Worker struct{ epoch uint64 }

func (w *Worker) BumpViewEpoch() { w.epoch++ }

// Skeleton stands for the engine frame both engines embed.  Its type
// parameter is the view store, so its hooks have generic receivers.
type Skeleton[S any] struct {
	w     *Worker
	store S
}

func (e *Skeleton[S]) dropView() { e.w.BumpViewEpoch() }

func (e *Skeleton[S]) BeginTrace() { // transitive bump through retire and dropView: ok
	e.retire()
}

func (e *Skeleton[S]) retire() { e.dropView() }

func (e *Skeleton[S]) EndTrace() {} // want `Skeleton\.EndTrace retires or moves views but never reaches`

func (e *Skeleton[S]) Merge(other S) { // want `Skeleton\.Merge retires or moves views but never reaches`
	e.store = other
}

func (e *Skeleton[S]) abortTrace() { // bump through a field's method: ok
	e.w.BumpViewEpoch()
}

// LookupMiss drops a stale occupant of a recycled address without a bump.
func (e *Skeleton[S]) LookupMiss(stale bool) { // want `Skeleton\.LookupMiss retires or moves views but never reaches`
	if stale {
		recycle(e)
	}
}

// recycle loops back into LookupMiss; the cycle must not hang the
// reachability walk, and neither side bumps.
func recycle[S any](e *Skeleton[S]) { e.LookupMiss(false) }

// growReducerPage moves no view, so it need not bump: not matched by
// -funcs.
func (e *Skeleton[S]) growReducerPage() {}

// Base stands for the registration frame the skeleton embeds.  Unregister
// kills no view, so it is not matched by -funcs.
type Base struct{ w *Worker }

func (b *Base) Unregister() { b.w = nil }

// HM stands for an engine: it embeds the skeleton and wraps none of its
// hooks.
type HM struct{ Skeleton[int] }

func (h *HM) helperOnly() {} // not matched by -funcs: ok
