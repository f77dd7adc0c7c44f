// Package locks provides the synchronization primitives CortenMM builds
// its locking protocols from (§4.5 of the paper): an MCS queue spinlock
// (used by CortenMM_adv for PT-page locks), a phase-fair queued
// readers-writer lock and its BRAVO reader-bias wrapper (used by
// CortenMM_rw), and a ticket lock for comparison benchmarks.
//
// All locks are spinlocks, as in the kernel: the simulated OS disables
// preemption during page-table operations, so critical sections are short
// and spinning (with a Gosched backoff so the Go scheduler can make
// progress when cores are oversubscribed) is the faithful model.
package locks

import "runtime"

// spinWait spins with progressive backoff. i is the caller-maintained
// iteration counter; call as: for i := 0; cond(); i++ { spinWait(i) }.
func spinWait(i int) {
	if i < 16 {
		// Busy spin: cheapest when the holder is running on another P.
		return
	}
	runtime.Gosched()
}
