package locks

import "sync/atomic"

// Ticket is a FIFO ticket spinlock: cheap to acquire uncontended, fair
// under contention but with O(n) cache traffic per handover. Used by the
// ablation benchmarks to contrast with MCS.
//
// The zero value is an unlocked ticket lock.
type Ticket struct {
	next    atomic.Uint64
	serving atomic.Uint64
}

// Lock takes a ticket and spins until it is served.
func (l *Ticket) Lock() {
	t := l.next.Add(1) - 1
	for i := 0; l.serving.Load() != t; i++ {
		spinWait(i)
	}
}

// TryLock acquires the lock only if it is immediately available.
func (l *Ticket) TryLock() bool {
	s := l.serving.Load()
	return l.next.CompareAndSwap(s, s+1)
}

// Unlock serves the next ticket.
func (l *Ticket) Unlock() {
	l.serving.Add(1)
}
