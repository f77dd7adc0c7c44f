package spec

import "testing"

// The clean interference model: populate transaction vs background
// sweep vs RCU reader over every interleaving, with the OOM unwind and
// direct reclaim in play. No violation, no deadlock.
func TestReclaimInterferenceClean(t *testing.T) {
	if res := runCase(t, "reclaim", "interference", ""); res.States < 100 {
		t.Errorf("suspiciously small state space (%d)", res.States)
	}
}

// Recycling a monitored frame without waiting for the reader snapshot
// is a use-after-free visible to the in-section reader.
func TestReclaimFreeWithoutBarrierCaught(t *testing.T) {
	runCase(t, "reclaim", "interference", "free-without-barrier")
}

// Freeing the frame when writeback completes but before the page is
// unmapped leaves a mapped VA pointing at a reclaimed frame.
func TestReclaimEagerFreeOnSwapCaught(t *testing.T) {
	runCase(t, "reclaim", "interference", "eager-free-on-swap")
}

// Without the transaction guard, the direct-reclaim candidate scan
// re-enters a VA range the reclaiming core itself has locked — the
// self-deadlock/corruption the rely condition forbids.
func TestReclaimNoTxGuardCaught(t *testing.T) { runCase(t, "reclaim", "interference", "no-tx-guard") }

// An unwind that forgets to clear its undo record frees the same frame
// twice across the retry loop.
func TestReclaimDoubleFreeOnUnwindCaught(t *testing.T) {
	runCase(t, "reclaim", "interference", "double-free-on-unwind")
}
