package a

type MM struct{ epoch uint64 }

func (m *MM) BumpViewEpoch() { m.epoch++ }

func (m *MM) publishViewInvalidation() { m.epoch += 2 }

func (m *MM) Unregister(id int) { // direct bump: ok
	m.BumpViewEpoch()
}

func (m *MM) BeginTrace() { // transitive bump through retire: ok
	m.retire()
}

func (m *MM) retire() { m.publishViewInvalidation() }

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

func (h *HM) Unregister() { // bump through a field's method: ok
	h.mm.BumpViewEpoch()
}

func (h *HM) helperOnly() {} // not matched by -funcs: ok
