package spec

import (
	"strings"
	"testing"
)

// Every clean TLB scenario in the table must pass: no stale hit and no
// deadlock, across all three shootdown modes.
func TestTLBStalenessClean(t *testing.T) {
	for name, res := range runFamily(t, "tlb") {
		if res.States < 10 {
			t.Errorf("%s: suspiciously small state space (%d)", name, res.States)
		}
	}
}

// The staleness window must actually be exercised: in sync mode a
// lookup between unmap and delivery may legally serve the old
// translation (that is the TLB-coherence window), so the clean run has
// hits at stale-but-not-yet-completed versions. We confirm the model
// distinguishes that from the violation by checking the seeded bug
// variant of the same scenario fails.
func TestTLBSkipValidateCaught(t *testing.T) {
	res := runCase(t, "tlb", "sync-basic", "skip-validate")
	if !strings.HasPrefix(res.Trace[len(res.Trace)-1], "r0:stale_hit") {
		t.Errorf("trace does not end in a stale hit: %v", res.Trace)
	}
}

// Ring wrap where validate skips the records that have left the ring,
// instead of missing, serves an entry whose unmap record it skipped.
func TestTLBTrustLostHistoryCaught(t *testing.T) {
	runCase(t, "tlb", "sync-ring-wrap", "trust-lost-history")
}

// Early-ack without the inbox drain serves a hit whose invalidation the
// initiator already saw acknowledged.
func TestTLBSkipInboxGateCaught(t *testing.T) { runCase(t, "tlb", "earlyack", "skip-inbox-gate") }

// A LATR shootdown acknowledged before the remote tick applies it is
// exactly the staleness contract violation.
func TestTLBLATREarlyCompleteCaught(t *testing.T) { runCase(t, "tlb", "latr", "latr-early-complete") }

// A quiesce that returns while a sweeper has taken the LATR buffer but
// not applied it claims a post-condition the cells do not yet hold —
// the hole tlb.Machine.Tick had when it zeroed the buffer count at
// take time. The counterexample must have exactly that shape.
func TestTLBQuiesceMissesSweepCaught(t *testing.T) {
	res := runCase(t, "tlb", "latr-quiesce", "quiesce-misses-sweep")
	trace := strings.Join(res.Trace, " ")
	take, q := strings.Index(trace, "sw:take"), strings.Index(trace, "q:quiesce")
	if take < 0 || q < take || strings.Contains(trace[take:q], "sw:apply") {
		t.Errorf("quiesce did not overtake a taken, unapplied sweep: %s", trace)
	}
}

// A fill that stamps its entry with the generation current at insert
// time hides an invalidation that landed after its walk: the entry
// looks as new as the bump that should have killed it. This is the race
// tlb.Machine.FillBegin closes by sampling before the walk.
func TestTLBStampAtInsertCaught(t *testing.T) {
	res := runCase(t, "tlb", "sync-basic", "stamp-at-insert")
	trace := strings.Join(res.Trace, " ")
	walk, fill := strings.Index(trace, "r0:walk(0)"), strings.Index(trace, "r0:fill(0)")
	if walk < 0 || fill < walk || !strings.Contains(trace[walk:fill], "m:deliver") {
		t.Errorf("no delivery between the walk and the insert: %s", trace)
	}
}
