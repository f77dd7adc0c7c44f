package locks

import (
	"sync/atomic"
	"time"
)

// bravoSlot is a cache-line-padded visible-reader flag.
type bravoSlot struct {
	flag atomic.Bool
	_    [56]byte
}

// BRAVO wraps a PhaseFair lock with the BRAVO biased-locking technique (Dice &
// Kogan, ATC'19): while the lock is read-biased, readers publish
// themselves in a per-core visible-readers slot and skip the underlying
// lock entirely, so read acquisitions on different cores touch disjoint
// cache lines. A writer revokes the bias, waits for all visible readers
// to drain, then takes the underlying lock; the bias stays disabled for a
// cooldown proportional to the revocation cost so write-heavy phases do
// not pay the scan repeatedly.
//
// CortenMM_rw uses BRAVO over PhaseFair as its PT-page lock
// ("BRAVO-pfqlock", §4.5). Unlike the original, slots are indexed by the
// simulated core ID, so there are no hash collisions.
type BRAVO struct {
	under   *PhaseFair
	rbias   atomic.Bool
	inhibit atomic.Int64 // unix-nanos until which bias stays off
	slots   []bravoSlot
}

// NewBRAVO wraps under with reader bias for the given core count.
func NewBRAVO(under *PhaseFair, cores int) *BRAVO {
	b := &BRAVO{under: under, slots: make([]bravoSlot, cores)}
	b.rbias.Store(true)
	return b
}

// RLock acquires in shared mode, through the visible-reader fast path
// when the lock is read-biased.
func (b *BRAVO) RLock(core int) {
	if b.rbias.Load() {
		b.slots[core].flag.Store(true)
		if b.rbias.Load() {
			return // fast path: published and bias still on
		}
		// Raced with a revoking writer: withdraw and take the slow path.
		b.slots[core].flag.Store(false)
	}
	b.under.RLock(core)
	if !b.rbias.Load() && time.Now().UnixNano() > b.inhibit.Load() {
		b.rbias.Store(true)
	}
}

// RUnlock releases a shared acquisition from either path.
func (b *BRAVO) RUnlock(core int) {
	if b.slots[core].flag.Load() {
		b.slots[core].flag.Store(false)
		return
	}
	b.under.RUnlock(core)
}

// Lock acquires exclusively, revoking reader bias first.
func (b *BRAVO) Lock(core int) {
	b.under.Lock(core)
	if b.rbias.Load() {
		start := time.Now()
		b.rbias.Store(false)
		for s := range b.slots {
			for i := 0; b.slots[s].flag.Load(); i++ {
				spinWait(i)
			}
		}
		// Keep bias off for ~9x the revocation cost (BRAVO's N=9).
		cost := time.Since(start).Nanoseconds()
		b.inhibit.Store(time.Now().UnixNano() + 9*cost)
	}
}

// Unlock releases an exclusive acquisition.
func (b *BRAVO) Unlock(core int) {
	b.under.Unlock(core)
}
