package locks

import "sync/atomic"

// Phase-fair ticket lock constants (Brandenburg & Anderson). Reader counts
// live above bit 8 of rin/rout; the two low bits of rin carry the
// writer-present flag and the writer phase ID.
const (
	pfRInc  = 0x100
	pfWBits = 0x3
	pfPres  = 0x2
	pfPhID  = 0x1
)

// PhaseFair is a phase-fair queued readers-writer spinlock (PF-T): reader
// and writer phases alternate, so neither side can starve the other, and
// writers are FIFO among themselves. CortenMM_rw uses it (via the BRAVO
// wrapper) as the per-PT-page lock (§4.5).
//
// The zero value is an unlocked PhaseFair lock.
type PhaseFair struct {
	rin  atomic.Uint32 // reader entries ×256 | writer present/phase bits
	rout atomic.Uint32 // reader exits ×256
	win  atomic.Uint32 // writer tickets issued
	wout atomic.Uint32 // writer tickets served
}

// RLock acquires the lock in shared mode. If a writer is present the
// reader waits for exactly one phase change, making the lock phase-fair.
func (l *PhaseFair) RLock(core int) {
	w := (l.rin.Add(pfRInc) - pfRInc) & pfWBits
	if w != 0 {
		for i := 0; l.rin.Load()&pfWBits == w; i++ {
			spinWait(i)
		}
	}
}

// RUnlock releases a shared acquisition.
func (l *PhaseFair) RUnlock(core int) {
	l.rout.Add(pfRInc)
}

// Lock acquires the lock exclusively: take a writer ticket, wait for
// preceding writers, announce presence to readers, then wait for in-flight
// readers to drain.
func (l *PhaseFair) Lock(core int) {
	ticket := l.win.Add(1) - 1
	for i := 0; l.wout.Load() != ticket; i++ {
		spinWait(i)
	}
	w := pfPres | (ticket & pfPhID)
	readers := l.rin.Add(w) - w // old value; WBITS were clear
	for i := 0; l.rout.Load() != readers; i++ {
		spinWait(i)
	}
}

// Unlock releases an exclusive acquisition, flipping the reader phase.
func (l *PhaseFair) Unlock(core int) {
	l.rin.And(^uint32(pfWBits))
	l.wout.Add(1)
}
