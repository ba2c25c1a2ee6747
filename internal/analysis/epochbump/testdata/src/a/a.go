package a

type MM struct{ epoch uint64 }

func (m *MM) BumpViewEpoch() { m.epoch++ }

func (m *MM) dropView() { m.BumpViewEpoch() }

func (m *MM) BeginTrace() { // transitive bump through retire and dropView: ok
	m.retire()
}

func (m *MM) retire() { m.dropView() }

func (m *MM) EndTrace() {} // want `MM\.EndTrace retires or moves views but never reaches`

func (m *MM) Merge(other *MM) { // want `MM\.Merge retires or moves views but never reaches`
	m.epoch = other.epoch
}

// growReducerPage moves no view, so it need not bump: not matched by
// -funcs.
func (m *MM) growReducerPage() {}

type HM struct{ mm MM }

func (h *HM) Merge() { // bump through a field's method: ok
	h.mm.BumpViewEpoch()
}

func (h *HM) EndTrace() { // want `HM\.EndTrace retires or moves views but never reaches`
	recycle(h)
}

// recycle loops back into EndTrace; the cycle must not hang the
// reachability walk, and neither side bumps.
func recycle(h *HM) { h.EndTrace() }

// lookupMiss drops a stale occupant of a recycled address without a bump.
func (h *HM) lookupMiss(stale bool) { // want `HM\.lookupMiss retires or moves views but never reaches`
	if stale {
		h.mm = MM{}
	}
}

// Base stands for the frame both engines embed.  Unregister kills no view,
// so it is not matched by -funcs.
type Base struct{ mm *MM }

func (b *Base) Unregister() { b.mm = nil }

func (h *HM) helperOnly() {} // not matched by -funcs: ok
