package a

type MM struct{ epoch uint64 }

func (m *MM) BumpViewEpoch() { m.epoch++ }

func (m *MM) invalidateViews() { m.BumpViewEpoch() }

func (m *MM) BeginTrace() { // transitive bump through retire and the sweep: ok
	m.retire()
}

func (m *MM) retire() { m.invalidateViews() }

func (m *MM) EndTrace() {} // want `MM\.EndTrace retires or moves views but never reaches`

func (m *MM) Merge(other *MM) { // want `MM\.Merge retires or moves views but never reaches`
	m.epoch = other.epoch
}

func (m *MM) growReducerPage() { // want `MM\.growReducerPage retires or moves views but never reaches`
	recycle(m)
}

// recycle loops back into growReducerPage; the cycle must not hang the
// reachability walk, and neither side bumps.
func recycle(m *MM) { m.growReducerPage() }

type HM struct{ mm MM }

func (h *HM) Merge() { // bump through a field's method: ok
	h.mm.BumpViewEpoch()
}

// Base stands for the frame both engines embed, where Unregister lives.
type Base struct{ mm *MM }

func (b *Base) Unregister() { // want `Base\.Unregister retires or moves views but never reaches`
	b.mm = nil
}

func (h *HM) helperOnly() {} // not matched by -funcs: ok
