package spec

import (
	"strings"
	"testing"
)

// Every clean TLB scenario in the envelope grid must pass: no stale
// hit, no precision drop, no deadlock, across all three shootdown
// modes.
func TestTLBStalenessClean(t *testing.T) {
	for _, c := range EnvelopeCases() {
		if c.Family != "tlb" {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			res := Check(c.Model, c.Bound)
			if res.Violation != nil {
				t.Errorf("%v\ntrace: %s", res.Violation, strings.Join(res.Trace, " "))
			}
			if res.Deadlock != nil {
				t.Errorf("deadlock: %s", strings.Join(res.Deadlock, " "))
			}
			if res.States < 10 {
				t.Errorf("suspiciously small state space (%d)", res.States)
			}
			t.Logf("explored %d states, %d transitions", res.States, res.Transitions)
		})
	}
}

// The staleness window must actually be exercised: in sync mode a
// lookup between unmap and delivery may legally serve the old
// translation (that is the TLB-coherence window), so the clean run has
// hits at stale-but-not-yet-completed versions. We confirm the model
// distinguishes that from the violation by checking the seeded bug
// variant of the same scenario fails.
func TestTLBSkipValidateCaught(t *testing.T) {
	m := &TLBModel{
		Mode:   TLBSync,
		Unmaps: []int8{0},
		Readers: [][]TLBOp{
			{{Fill: true, Page: 0}, {Page: 0}, {Page: 0}},
		},
		SkipValidate: true,
	}
	res := Check(m, 2_000_000)
	if res.Violation == nil {
		t.Fatal("checker missed the skipped-validate bug")
	}
	if !strings.Contains(res.Violation.Error(), "stale hit") {
		t.Errorf("unexpected violation: %v", res.Violation)
	}
	if len(res.Trace) == 0 || !strings.HasPrefix(res.Trace[len(res.Trace)-1], "r0:stale_hit") {
		t.Errorf("trace does not end in a stale hit: %v", res.Trace)
	}
}

// Ring wrap with the overflow spill disabled loses an invalidation
// record and drops a still-live entry — the pre-PR6 conservative-miss
// precision bug.
func TestTLBDropOverflowCaught(t *testing.T) {
	m := &TLBModel{
		Mode:         TLBSync,
		Unmaps:       []int8{1, 1, 1},
		Readers:      [][]TLBOp{{{Fill: true, Page: 0}, {Page: 0}}},
		DropOverflow: true,
	}
	res := Check(m, 2_000_000)
	if res.Violation == nil {
		t.Fatal("checker missed the dropped-overflow bug")
	}
	if !strings.Contains(res.Violation.Error(), "dropped a live entry") {
		t.Errorf("unexpected violation: %v", res.Violation)
	}
}

// Early-ack without the inbox drain serves a hit whose invalidation the
// initiator already saw acknowledged.
func TestTLBSkipInboxGateCaught(t *testing.T) {
	m := &TLBModel{
		Mode:          TLBEarlyAck,
		Unmaps:        []int8{0},
		Readers:       [][]TLBOp{{{Fill: true, Page: 0}, {Page: 0}, {Page: 0}}},
		SkipInboxGate: true,
	}
	res := Check(m, 2_000_000)
	if res.Violation == nil {
		t.Fatal("checker missed the skipped-inbox-gate bug")
	}
	if !strings.Contains(res.Violation.Error(), "stale hit") {
		t.Errorf("unexpected violation: %v", res.Violation)
	}
}

// A LATR shootdown acknowledged before the remote tick applies it is
// exactly the staleness contract violation.
func TestTLBLATREarlyCompleteCaught(t *testing.T) {
	m := &TLBModel{
		Mode:              TLBLATR,
		Unmaps:            []int8{0},
		Readers:           [][]TLBOp{{{Fill: true, Page: 0}, {Page: 0}, {Page: 0}}},
		LATREarlyComplete: true,
	}
	res := Check(m, 2_000_000)
	if res.Violation == nil {
		t.Fatal("checker missed the LATR-early-complete bug")
	}
	if !strings.Contains(res.Violation.Error(), "stale hit") {
		t.Errorf("unexpected violation: %v", res.Violation)
	}
}

// A quiesce that returns while a sweeper has taken the LATR buffer but
// not applied it claims a post-condition the cells do not yet hold —
// the hole tlb.Machine.Tick had when it zeroed the buffer count at
// take time. The counterexample must have exactly that shape.
func TestTLBQuiesceMissesSweepCaught(t *testing.T) {
	m := &TLBModel{
		Mode:               TLBLATR,
		Unmaps:             []int8{0},
		Readers:            [][]TLBOp{{{Fill: true, Page: 0}, {Page: 0}, {Page: 0}}},
		Quiesces:           1,
		QuiesceMissesSweep: true,
	}
	res := Check(m, 2_000_000)
	if res.Violation == nil {
		t.Fatal("checker missed the quiesce-misses-sweep bug")
	}
	if !strings.Contains(res.Violation.Error(), "stale hit") {
		t.Errorf("unexpected violation: %v", res.Violation)
	}
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
	m := &TLBModel{
		Mode:          TLBSync,
		Unmaps:        []int8{0},
		Readers:       [][]TLBOp{{{Fill: true, Page: 0}, {Page: 0}}},
		StampAtInsert: true,
	}
	res := Check(m, 2_000_000)
	if res.Violation == nil {
		t.Fatal("checker missed the stamp-at-insert bug")
	}
	if !strings.Contains(res.Violation.Error(), "stale hit") {
		t.Errorf("unexpected violation: %v", res.Violation)
	}
	trace := strings.Join(res.Trace, " ")
	walk, fill := strings.Index(trace, "r0:walk(0)"), strings.Index(trace, "r0:fill(0)")
	if walk < 0 || fill < walk || !strings.Contains(trace[walk:fill], "m:deliver") {
		t.Errorf("no delivery between the walk and the insert: %s", trace)
	}
}
