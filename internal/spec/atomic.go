package spec

import "fmt"

// AtomicState is the top-level Atomic Spec of §5.1: each core either
// holds nothing (Null) or holds one PT page exclusively (Hold), meaning
// the whole subtree under it belongs to that core.
type AtomicState struct {
	Hold [maxCores]int8 // held page, or -1 for Null
}

// atomicLockOK is the Atomic Spec's precondition for lock(core, page):
// no other core may hold a page that is an ancestor, descendant, or the
// page itself — the invariant of lemma_mutual_exclusion (Figure 11).
func atomicLockOK(t *Topology, s AtomicState, core, page int) bool {
	for c := range s.Hold {
		if c == core || s.Hold[c] == -1 {
			continue
		}
		if t.Overlapping(int(s.Hold[c]), page) {
			return false
		}
	}
	return true
}

// interpRW is the refinement function from the Atomic Tree Spec (the
// rwState) to the Atomic Spec: a core maps to Hold(covering page) while
// its transaction body runs, Null otherwise.
func interpRW(m *RWModel, st rwState) AtomicState {
	var a AtomicState
	for c := range a.Hold {
		a.Hold[c] = -1
	}
	for c := range m.Targets {
		// A core owns its subtree while the write lock is held: from
		// the wlock acquisition until the first release step.
		if st.Cores[c].PC == rwCS && st.Cores[c].Rel == 0 {
			a.Hold[c] = int8(m.Targets[c])
		}
	}
	return a
}

// RWRefinement is the rw model checked as a forward simulation of the
// Atomic Spec (§5.1 made executable): besides P1 on every state, the
// interpretation of every concrete step must be a legal Atomic Spec
// step — a stutter, a lock(core, page) whose precondition holds, or an
// unlock(core).
type RWRefinement struct{ RWModel }

// CheckStep implements StepChecker.
func (m *RWRefinement) CheckStep(from, to State) error {
	return refineStep(m.Topo, interpRW(&m.RWModel, from.(rwState)), interpRW(&m.RWModel, to.(rwState)))
}

// refineStep validates one abstract transition from a to b.
func refineStep(t *Topology, a, b AtomicState) error {
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
		if !atomicLockOK(t, a, changed, int(b.Hold[changed])) {
			return fmt.Errorf("spec: refinement broken: lock(%d, %d) violates Atomic Spec precondition",
				changed, b.Hold[changed])
		}
	case b.Hold[changed] == -1: // unlock(core)
	default:
		return fmt.Errorf("spec: refinement broken: core %d switched pages without unlock", changed)
	}
	return nil
}
