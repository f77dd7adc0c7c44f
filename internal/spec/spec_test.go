package spec

import (
	"strings"
	"testing"
)

func TestTopology(t *testing.T) {
	topo := NewTopology(3, 2) // 0; 1,2; 3,4,5,6
	if topo.N != 7 {
		t.Fatalf("N = %d", topo.N)
	}
	if !topo.IsAncestor(0, 5) || !topo.IsAncestor(1, 4) || topo.IsAncestor(1, 5) {
		t.Error("ancestor relation wrong")
	}
	if !topo.Overlapping(1, 3) || topo.Overlapping(3, 4) || !topo.Overlapping(2, 2) {
		t.Error("overlap relation wrong")
	}
	if got := topo.PathTo(4); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 4 {
		t.Errorf("PathTo(4) = %v", got)
	}
	if got := topo.Subtree(1); len(got) != 3 || got[0] != 1 {
		t.Errorf("Subtree(1) = %v", got)
	}
}

// --- P1 for CortenMM_rw: every interleaving of up to 3 cores on every
// class of target combination maintains mutual exclusion and reaches
// completion (no deadlock).
func TestRWMutualExclusion(t *testing.T) {
	for name, res := range runFamily(t, "rw") {
		if res.States < 5 {
			t.Errorf("%s: suspiciously small state space (%d)", name, res.States)
		}
	}
}

// --- Stepwise unlock: releasing locks one at a time (the Drop order of
// Figure 4) exposes mid-release interleavings; safety and refinement
// must still hold, and the state space grows accordingly.
func TestRWStepwiseUnlock(t *testing.T) {
	for name, res := range runFamily(t, "stepwise") {
		if coarse := runCase(t, "rw", name, ""); res.States <= coarse.States {
			t.Errorf("%s: stepwise states %d not larger than atomic-unlock %d", name, res.States, coarse.States)
		}
	}
}

// --- The seeded bug: dropping the ancestor read locks must be caught.
// This shows the property is not vacuous.
func TestRWSeededBugCaught(t *testing.T) { runCase(t, "rw", "nested", "skip-read-locks") }

// --- Refinement: the Atomic Tree Spec (rw model) refines the Atomic
// Spec via interp (§5.1's forward simulation). Check refines every row
// of a model with an Interp, so these are the rw rows.
func TestRWRefinesAtomicSpec(t *testing.T) { runFamily(t, "rw") }

// Refinement must fail for the buggy protocol: the illegal concrete
// step has no legal abstract counterpart.
func TestRefinementCatchesBug(t *testing.T) { runCase(t, "rw", "nested", "skip-read-locks") }

// --- P1 + Figure 7 safety for CortenMM_adv: lockers racing an unmapper
// over every interleaving. Checks mutual exclusion, no use-after-free,
// no lost update, and no deadlock.
func TestAdvSafety(t *testing.T) { runFamily(t, "adv") }

// --- Seeded bug: without the stale check, a locker transacts on a
// removed PT page — the lost update of Figure 7.
func TestAdvNoStaleCheckCaught(t *testing.T) { runCase(t, "adv", "fig7", "no-stale-check") }

// --- Seeded bug: freeing without the RCU grace period lets a traverser
// lock (or read) freed memory — the use-after-free of Figure 7.
func TestAdvNoRCUCaught(t *testing.T) { runCase(t, "adv", "fig7", "no-rcu") }

// --- Seeded bug: removing a page without marking it stale is also a
// lost update (the locker passes the stale check on the removed page).
func TestAdvNoStaleMarkCaught(t *testing.T) { runCase(t, "adv", "fig7", "no-stale-mark") }

// The checker itself must report deadlocks: a trivial machine that
// stops halfway.
type stuckMachine struct{}

type stuckState int

func (s stuckState) Key() string { return string(rune('a' + s)) }

func (stuckMachine) Init() State { return stuckState(0) }
func (stuckMachine) Next(s State) []Step {
	if s.(stuckState) == 0 {
		return []Step{{"go", stuckState(1)}}
	}
	return nil
}
func (stuckMachine) Check(State) error { return nil }
func (stuckMachine) Done(s State) bool { return false }

func TestCheckerReportsDeadlock(t *testing.T) {
	res := Check(stuckMachine{}, 100)
	if res.Deadlock == nil {
		t.Fatal("deadlock not reported")
	}
	// The deadlock path must report the real explored-state count, not
	// the initial placeholder of 1 (both states were visited before the
	// stuck state was popped).
	if res.States != 2 {
		t.Errorf("deadlock States = %d, want 2", res.States)
	}
}

// A broken refinement is reported like any other violation: with the
// path to the offending step, which ends in that step.
func TestRefinementTraceEndsInBadStep(t *testing.T) {
	res := runCase(t, "rw", "nested", "skip-read-locks")
	if last := res.Trace[len(res.Trace)-1]; !strings.Contains(last, ":wlock(") {
		t.Errorf("trace does not end in the illegal lock step: %v", res.Trace)
	}
}
