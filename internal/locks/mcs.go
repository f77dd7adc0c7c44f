package locks

import (
	"sync"
	"sync/atomic"
)

// MCS is a Mellor-Crummey–Scott queue spinlock. Each waiter spins on its
// own queue node, so under contention the lock generates O(1) cache-line
// traffic per handover instead of the O(n) of a test-and-set lock. This is
// the PT-page lock used by CortenMM_adv (§4.5).
//
// The uncontended path is one CAS in and one CAS out: the lock embeds
// the queue node its uncontended owner uses, and node fields are written
// only once a queue forms. That rests on one invariant — a node at rest
// (embedded and unused, or in the pool) has next == nil and locked ==
// false — which Unlock restores before it lets go of a node.
//
// The zero value is an unlocked MCS lock. A lock must not be copied
// after first use (the tail may point at its own embedded node).
type MCS struct {
	tail atomic.Pointer[mcsNode]
	// holder is the queue node of the current owner. It is written only
	// by the thread that has just acquired the lock and read only by the
	// owner at Unlock, so it needs no synchronization of its own.
	holder *mcsNode
	// own is the node of an owner that found the queue empty. Waiters
	// take theirs from the pool, so a node costs a pool trip only when
	// there is somebody to wait for.
	own mcsNode
}

type mcsNode struct {
	next   atomic.Pointer[mcsNode]
	locked atomic.Bool
}

var mcsPool = sync.Pool{New: func() any { return new(mcsNode) }}

// Lock acquires the lock, spinning on a private queue node until the
// predecessor hands it over.
func (l *MCS) Lock() {
	if !l.TryLock() {
		l.lockSlow()
	}
}

// lockSlow joins the queue. The store order is what the predecessor's
// Unlock relies on: locked is set after the tail swap returned a
// predecessor but before the node is linked, and the predecessor hands
// over only to a node it has seen linked.
func (l *MCS) lockSlow() {
	n := mcsPool.Get().(*mcsNode)
	if pred := l.tail.Swap(n); pred != nil {
		n.locked.Store(true)
		pred.next.Store(n)
		for i := 0; n.locked.Load(); i++ {
			spinWait(i)
		}
	}
	l.holder = n
}

// TryLock acquires the lock only if no one holds or waits for it.
func (l *MCS) TryLock() bool {
	if !l.tail.CompareAndSwap(nil, &l.own) {
		return false
	}
	l.holder = &l.own
	return true
}

// Unlock releases the lock, handing it to the next queued waiter if any.
func (l *MCS) Unlock() {
	n := l.holder
	if n == nil {
		panic("locks: MCS.Unlock of unlocked lock")
	}
	l.holder = nil
	next := n.next.Load()
	if next == nil {
		if l.tail.CompareAndSwap(n, nil) {
			l.rest(n)
			return
		}
		// A successor is enqueueing; wait for it to link itself.
		for i := 0; ; i++ {
			if next = n.next.Load(); next != nil {
				break
			}
			spinWait(i)
		}
	}
	// Clean the node before the hand-off: once the successor runs, the
	// queue can drain and the embedded node be taken again.
	n.next.Store(nil)
	next.locked.Store(false)
	l.rest(n)
}

// rest retires a clean node: a pooled one goes back to the pool, the
// embedded one just stays where it is.
func (l *MCS) rest(n *mcsNode) {
	if n != &l.own {
		mcsPool.Put(n)
	}
}

var _ Mutex = (*MCS)(nil)
