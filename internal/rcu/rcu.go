// Package rcu implements epoch-based read-copy-update for the simulated
// kernel. CortenMM_adv performs its lockless page-table traversal inside a
// read-side critical section and frees removed PT pages through the "RCU
// monitor" (§4.1, Figure 6): a deferred-free list whose entries are only
// reclaimed once no reader that could have observed the page remains in
// its critical section.
package rcu

import (
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
)

// slot is a cache-line-padded per-core reader word: the read-section
// nesting depth in the low nestBits and, while that is nonzero, the
// epoch observed by the entrant that raised it from zero above it. One
// word, so that entering or leaving is one CAS and a second goroutine
// on the same core id can never be inside a section the word does not
// show: the first entrant's epoch stands until the last one leaves.
type slot struct {
	word atomic.Uint64
	_    [56]byte
}

const (
	nestBits = 16
	nestMask = 1<<nestBits - 1
)

// readerEpoch returns the epoch the core's open read section was entered
// at; ok is false when the core is quiescent.
func (s *slot) readerEpoch() (epoch uint64, ok bool) {
	w := s.word.Load()
	return w >> nestBits, w&nestMask != 0
}

// FrameRun is a run of physically contiguous frame heads queued for
// release: Head, Head+1, …, Head+N-1, one reference each.
type FrameRun struct {
	Head arch.PFN
	N    uint32
}

// FramePutter is the frame allocator that deferred frame frees go back
// to (*mem.PhysMem).
type FramePutter interface {
	PutRun(core int, head arch.PFN, n int)
}

// callback is one deferred action with the epoch at which it was queued:
// either a function, or (fn == nil) the frame runs to Put on behalf of
// core — the common case, kept as data so that queueing it allocates
// nothing.
type callback struct {
	epoch  uint64
	fn     func()
	frames FramePutter
	core   int
	runs   []FrameRun
}

// run performs the deferred action.
func (cb *callback) run() {
	if cb.fn != nil {
		cb.fn()
		return
	}
	for _, r := range cb.runs {
		cb.frames.PutRun(cb.core, r.Head, int(r.N))
	}
}

// Bounds on the storage the domain recycles between deferred frees.
const (
	maxSpareRuns = 64   // run lists kept for reuse
	maxRunsKept  = 1024 // a longer run list goes to the collector instead
)

// Domain is an independent RCU domain, the analog of a kernel's global
// RCU state.
type Domain struct {
	epoch atomic.Uint64
	slots []slot

	mu      sync.Mutex
	pending []callback
	// ready is Poll's scratch list and spareRuns the run lists of
	// executed frame frees; both are handed out and taken back under mu
	// so the steady state allocates nothing.
	ready     []callback
	spareRuns [][]FrameRun
	deferred  atomic.Uint64 // stats: callbacks queued
	freed     atomic.Uint64 // stats: callbacks run
	graces    atomic.Uint64 // stats: synchronize() grace periods
}

// NewDomain creates an RCU domain for the given number of cores.
func NewDomain(cores int) *Domain {
	return &Domain{slots: make([]slot, cores)}
}

// ReadLock enters a read-side critical section on core. Sections nest.
func (d *Domain) ReadLock(core int) {
	s := &d.slots[core].word
	for {
		w := s.Load()
		nw := w + 1
		if w&nestMask == 0 {
			nw = d.epoch.Load()<<nestBits | 1
		}
		if s.CompareAndSwap(w, nw) {
			return
		}
	}
}

// ReadUnlock leaves the read-side critical section on core.
func (d *Domain) ReadUnlock(core int) {
	s := &d.slots[core].word
	for {
		w := s.Load()
		nw := w - 1
		switch w & nestMask {
		case 0:
			panic("rcu: unbalanced ReadUnlock")
		case 1:
			nw = 0
		}
		if s.CompareAndSwap(w, nw) {
			return
		}
	}
}

// InReader reports whether core is currently inside a read section.
func (d *Domain) InReader(core int) bool {
	_, in := d.slots[core].readerEpoch()
	return in
}

// Defer queues fn to run once every reader that might hold a reference
// to the protected object has left its critical section. This is the RCU
// monitor: CortenMM_adv pushes removed PT pages here (rcu_delay_free).
// Like DeferPut it returns how many callbacks are now waiting.
func (d *Domain) Defer(fn func()) int {
	return d.enqueue(callback{fn: fn}, nil)
}

// DeferPut queues the frames of runs to be Put to frames on behalf of
// core after a grace period — Defer for the unmap path, counted as one
// callback like the closure it stands for. runs is copied; the caller
// may reuse it at once. It returns how many callbacks are now waiting,
// which saves the unmap path a second trip through the domain's lock to
// learn whether it should run the deferred work itself.
func (d *Domain) DeferPut(frames FramePutter, core int, runs []FrameRun) int {
	return d.enqueue(callback{frames: frames, core: core}, runs)
}

func (d *Domain) enqueue(cb callback, runs []FrameRun) int {
	cb.epoch = d.epoch.Add(1) - 1
	d.deferred.Add(1)
	d.mu.Lock()
	if cb.fn == nil {
		if n := len(d.spareRuns); n > 0 {
			cb.runs = d.spareRuns[n-1]
			d.spareRuns = d.spareRuns[:n-1]
		}
		cb.runs = append(cb.runs[:0], runs...)
	}
	d.pending = append(d.pending, cb)
	n := len(d.pending)
	d.mu.Unlock()
	return n
}

// minReaderEpoch returns the oldest epoch any active reader entered at,
// or ^0 if no reader is active.
func (d *Domain) minReaderEpoch() uint64 {
	min := ^uint64(0)
	for i := range d.slots {
		if e, in := d.slots[i].readerEpoch(); in && e < min {
			min = e
		}
	}
	return min
}

// Poll runs every deferred callback whose grace period has elapsed. The
// simulated timer tick polls through cpusim.Machine.Reap, mirroring
// kernel RCU's softirq.
func (d *Domain) Poll() { d.PollBefore(^uint64(0)) }

// Epoch returns the domain's current epoch: every callback queued
// before the call is older than it, every one queued after is not.
func (d *Domain) Epoch() uint64 { return d.epoch.Load() }

// PollBefore is Poll restricted to the callbacks queued before the
// domain's epoch was epoch. The simulated timer tick takes the epoch,
// sweeps the lazily applied TLB invalidations and then polls with it,
// so no frame is freed whose unmap queued an invalidation the sweep
// could have missed (cpusim.Machine.Reap).
func (d *Domain) PollBefore(epoch uint64) {
	d.mu.Lock()
	if len(d.pending) == 0 {
		d.mu.Unlock()
		return
	}
	// The reader scan runs under mu so that every pending callback was
	// queued before it. Scanned first, a callback queued in between could
	// free what a reader that entered in between is using — the scan
	// would have reported "no readers" for both.
	min := d.minReaderEpoch()
	if epoch < min {
		min = epoch
	}
	// A concurrent Poll has the scratch list; this one grows its own.
	ready := d.ready[:0]
	keep := d.pending[:0]
	for _, cb := range d.pending {
		// A reader that entered at epoch <= cb.epoch may still see the
		// object; it is safe only when every active reader is newer.
		if cb.epoch < min {
			ready = append(ready, cb)
		} else {
			keep = append(keep, cb)
		}
	}
	if len(ready) == 0 {
		d.mu.Unlock()
		return
	}
	clear(d.pending[len(keep):]) // the moved entries' closures and run lists
	d.pending = keep
	d.ready = nil
	d.mu.Unlock()
	for i := range ready {
		ready[i].run()
		d.freed.Add(1)
	}
	d.mu.Lock()
	for i := range ready {
		if r := ready[i].runs; r != nil && cap(r) <= maxRunsKept && len(d.spareRuns) < maxSpareRuns {
			d.spareRuns = append(d.spareRuns, r)
		}
	}
	clear(ready)
	d.ready = ready
	d.mu.Unlock()
}

// Synchronize blocks until a full grace period has elapsed: every reader
// active at the time of the call has exited its critical section.
func (d *Domain) Synchronize() {
	target := d.epoch.Add(1)
	for d.minReaderEpoch() < target {
	}
	d.graces.Add(1)
}

// Barrier waits for all currently queued callbacks to run.
func (d *Domain) Barrier() {
	d.Synchronize()
	for {
		d.Poll()
		d.mu.Lock()
		n := len(d.pending)
		d.mu.Unlock()
		if n == 0 {
			return
		}
	}
}

// Stats reports cumulative domain statistics.
type Stats struct {
	Deferred uint64 // callbacks queued via Defer
	Freed    uint64 // callbacks executed
	Pending  int    // callbacks still waiting for a grace period
	Graces   uint64 // explicit Synchronize grace periods
}

// Stats returns a snapshot of the domain's counters.
func (d *Domain) Stats() Stats {
	d.mu.Lock()
	pending := len(d.pending)
	d.mu.Unlock()
	return Stats{
		Deferred: d.deferred.Load(),
		Freed:    d.freed.Load(),
		Pending:  pending,
		Graces:   d.graces.Load(),
	}
}
