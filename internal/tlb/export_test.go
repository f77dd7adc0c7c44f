package tlb

// What the spec-replay test reaches inside a Machine. That test is in
// package tlb_test: it imports internal/spec, whose flat model imports
// this package through cpusim and mm.

// NCores is the number of cores m simulates.
func (m *Machine) NCores() int { return len(m.cores) }

// ParkCell holds core's epoch cell for asid odd, so a sweep's bump of it
// spins until the returned release.
func (m *Machine) ParkCell(core int, asid ASID) (release func()) {
	cell := m.cores[core].cell(asid)
	cell.seq.Add(1)
	return func() { cell.seq.Add(1) }
}

// LATRTaken reports whether core's LATR buffer is empty: a sweep took it.
func (m *Machine) LATRTaken(core int) bool {
	b := &m.cores[core].latr
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf) == 0
}
