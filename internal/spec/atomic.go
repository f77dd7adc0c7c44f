package spec

import "fmt"

// Model-size bounds: 3 cores on a 4-level binary tree (15 pages) already
// exercises every interesting interleaving class.
const (
	maxCores = 3
	maxPages = 15
)

// AtomicState is the top-level Atomic Spec of §5.1 over the tree Topo:
// each core either holds nothing (Null) or holds one PT page
// exclusively (Hold), meaning the whole subtree under it belongs to that
// core.
type AtomicState struct {
	Topo *Topology
	Hold [maxCores]int8 // held page, or -1 for Null
}

// nullAtomic is the state in which no core holds a page.
func nullAtomic(t *Topology) AtomicState {
	a := AtomicState{Topo: t}
	for c := range a.Hold {
		a.Hold[c] = -1
	}
	return a
}

// Interp is a lock-protocol model's refinement function (§5.1's
// interp): it says which page each core of a state holds in the Atomic
// Spec. Check proves that every transition of such a model is a legal
// Atomic Spec step; since every core starts Null, P1 — no two cores
// hold overlapping pages — follows in every state by induction.
type Interp interface {
	Interp(s State) AtomicState
}

// atomicLockOK is the Atomic Spec's precondition for lock(core, page):
// no other core may hold a page that is an ancestor, descendant, or the
// page itself — the invariant of lemma_mutual_exclusion (Figure 11).
func atomicLockOK(s AtomicState, core, page int) bool {
	for c := range s.Hold {
		if c == core || s.Hold[c] == -1 {
			continue
		}
		if s.Topo.Overlapping(int(s.Hold[c]), page) {
			return false
		}
	}
	return true
}

// refineStep validates one abstract transition from a to b: a stutter,
// a lock(core, page) whose precondition holds, or an unlock(core).
func refineStep(a, b AtomicState) error {
	changed := -1
	for c := range a.Hold {
		if a.Hold[c] != b.Hold[c] {
			if changed != -1 {
				return fmt.Errorf("spec: refinement broken: two cores change in one step")
			}
			changed = c
		}
	}
	if changed == -1 {
		return nil // stutter
	}
	switch {
	case a.Hold[changed] == -1: // lock(core, page)
		if !atomicLockOK(a, changed, int(b.Hold[changed])) {
			return fmt.Errorf("spec: refinement broken: lock(%d, %d) violates Atomic Spec precondition",
				changed, b.Hold[changed])
		}
	case b.Hold[changed] == -1: // unlock(core)
	default:
		return fmt.Errorf("spec: refinement broken: core %d switched pages without unlock", changed)
	}
	return nil
}
