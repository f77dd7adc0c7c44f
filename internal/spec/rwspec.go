package spec

import "fmt"

// This file models CortenMM_rw (Figure 5) as it runs: cores discover
// their covering page by reading child links while holding reader locks,
// then write-lock it; an unmapper core removes and immediately frees a PT
// page — no RCU, no stale marks. The paper argues this is safe for the rw
// protocol because a traverser holds the reader lock on the parent while
// reading the child link, which blocks the (writer-locked) removal. The
// checker verifies exactly that: with the protocol intact there is no
// use-after-free; with the reader locks skipped (the seeded bug) there
// is. P1 is the refinement of the Atomic Spec through Interp.

// Core phases of the rw model.
const (
	rwStart = iota
	rwDescend
	rwUpgrade
	rwCS
	rwRelease
	rwDone
)

// rwCore: the core holds reader locks on every path page strictly above
// Cur, plus Cur itself when CurLocked (None of this applies when the
// SkipReadLocks bug is enabled.)
type rwCore struct {
	PC        uint8
	Cur       int8
	CurLocked bool
}

// rwState is one global state of the rw model: per-page links and lock
// state (the Atomic Tree Spec's Unlocked/ReadLocked/WriteLocked) plus
// per-core protocol state.
type rwState struct {
	Linked  [maxPages]bool
	Freed   [maxPages]bool
	Readers [maxPages]uint8
	Writer  [maxPages]int8 // holding core, or -1
	Cores   [maxCores]rwCore
	Bad     string
}

// Key implements State.
func (s rwState) Key() string {
	return fmt.Sprintf("%v%v%v%v%v%s", s.Linked, s.Freed, s.Readers, s.Writer, s.Cores, s.Bad)
}

// RWModel is the CortenMM_rw locking protocol with PT-page removal and
// immediate (non-RCU) free.
type RWModel struct {
	Topo *Topology
	// Targets[c] is core c's covering PT page (its locked range).
	Targets []int
	// Roles[c] is core c's role; nil means every core is a locker.
	Roles []Role
	// UnmapChild is the page the unmapper removes and frees at once; it
	// must be a child of the unmapper's target.
	UnmapChild int
	// SkipReadLocks seeds the bug: traversal reads links without
	// holding reader locks, so a writer on an ancestor no longer
	// conflicts with a writer below it and the immediate free is unsound.
	SkipReadLocks bool
	// StepwiseUnlock releases one lock per transition, in the reverse
	// order of acquisition as the paper's Drop does: the write lock
	// first, then the read locks deepest first.
	StepwiseUnlock bool
}

// Init implements Machine.
func (m *RWModel) Init() State {
	var s rwState
	for p := 0; p < m.Topo.N; p++ {
		s.Linked[p] = true
	}
	for p := range s.Writer {
		s.Writer[p] = -1
	}
	for c := range s.Cores {
		s.Cores[c].Cur = -1
	}
	return s
}

// Next implements Machine.
func (m *RWModel) Next(st State) []Step {
	s := st.(rwState)
	if s.Bad != "" {
		return nil
	}
	var out []Step
	for c := range m.Targets {
		core := s.Cores[c]
		path := m.Topo.PathTo(m.Targets[c])
		switch core.PC {
		case rwStart:
			n := s
			n.Cores[c].Cur = 0
			n.Cores[c].CurLocked = false
			n.Cores[c].PC = rwDescend
			out = append(out, Step{fmt.Sprintf("c%d:start", c), n})

		case rwDescend:
			cur := int(core.Cur)
			if s.Freed[cur] {
				n := s
				n.Bad = fmt.Sprintf("core %d touches freed PT page %d during descent (use-after-free)", c, cur)
				out = append(out, Step{fmt.Sprintf("c%d:uaf(%d)", c, cur), n})
				break
			}
			if !core.CurLocked {
				// Acquire the reader lock on cur (Fig 5 L4); blocked
				// while a writer holds it. The buggy variant skips the
				// lock but still takes the step.
				if m.SkipReadLocks {
					n := s
					n.Cores[c].CurLocked = true
					out = append(out, Step{fmt.Sprintf("c%d:noLock(%d)", c, cur), n})
				} else if s.Writer[cur] == -1 {
					n := s
					n.Readers[cur]++
					n.Cores[c].CurLocked = true
					out = append(out, Step{fmt.Sprintf("c%d:rlock(%d)", c, cur), n})
				}
				break
			}
			if cur == m.Targets[c] {
				n := s
				n.Cores[c].PC = rwUpgrade
				out = append(out, Step{fmt.Sprintf("c%d:stop(%d)", c, cur), n})
				break
			}
			next := path[m.Topo.Depth[cur]+1]
			n := s
			if s.Linked[next] {
				// Holding cur's reader lock, read the link and move on;
				// cur's lock stays held (it is now an ancestor).
				n.Cores[c].Cur = int8(next)
				n.Cores[c].CurLocked = false
				out = append(out, Step{fmt.Sprintf("c%d:read(%d)", c, next), n})
			} else {
				// Child gone: cur is the covering page.
				n.Cores[c].PC = rwUpgrade
				out = append(out, Step{fmt.Sprintf("c%d:cover(%d)", c, cur), n})
			}

		case rwUpgrade:
			cur := int(core.Cur)
			if s.Freed[cur] {
				n := s
				n.Bad = fmt.Sprintf("core %d write-locks freed PT page %d (use-after-free)", c, cur)
				out = append(out, Step{fmt.Sprintf("c%d:uaf_wlock(%d)", c, cur), n})
				break
			}
			if core.CurLocked {
				// Fig 5 L7: drop the reader lock before upgrading — the
				// benign gap discussed in §4.1.
				n := s
				if !m.SkipReadLocks {
					n.Readers[cur]--
				}
				n.Cores[c].CurLocked = false
				out = append(out, Step{fmt.Sprintf("c%d:runlock(%d)", c, cur), n})
				break
			}
			if s.Writer[cur] == -1 && s.Readers[cur] == 0 {
				n := s
				n.Writer[cur] = int8(c)
				n.Cores[c].PC = rwCS
				out = append(out, Step{fmt.Sprintf("c%d:wlock(%d)", c, cur), n})
			}

		case rwCS:
			cur := int(core.Cur)
			n := s
			if m.Roles != nil && m.Roles[c] == RoleUnmapper && s.Linked[m.UnmapChild] &&
				m.Topo.Parent[m.UnmapChild] == cur {
				// Remove the child and free it IMMEDIATELY — no grace
				// period. Sound only because link readers hold the
				// parent's reader lock, which our writer lock excludes.
				n.Linked[m.UnmapChild] = false
				n.Freed[m.UnmapChild] = true
				n.Cores[c].PC = rwRelease
				out = append(out, Step{fmt.Sprintf("c%d:unmap_free(%d)", c, m.UnmapChild), n})
				break
			}
			n.Cores[c].PC = rwRelease
			out = append(out, Step{fmt.Sprintf("c%d:body", c), n})

		case rwRelease:
			cur := int(core.Cur)
			n := s
			if !m.StepwiseUnlock {
				n.Writer[cur] = -1
				if !m.SkipReadLocks {
					for _, p := range path {
						if p == cur {
							break
						}
						n.Readers[p]--
					}
				}
				n.Cores[c].PC = rwDone
				out = append(out, Step{fmt.Sprintf("c%d:unlock_all", c), n})
				break
			}
			// Cur walks back up the path: each step drops the deepest
			// lock still held, the write lock on Cur first.
			switch up := m.Topo.Parent[cur]; {
			case s.Writer[cur] == int8(c):
				n.Writer[cur] = -1
				out = append(out, Step{fmt.Sprintf("c%d:wunlock(%d)", c, cur), n})
			case up >= 0:
				if !m.SkipReadLocks {
					n.Readers[up]--
				}
				n.Cores[c].Cur = int8(up)
				out = append(out, Step{fmt.Sprintf("c%d:runlock(%d)", c, up), n})
			default:
				n.Cores[c].PC = rwDone
				out = append(out, Step{fmt.Sprintf("c%d:done", c), n})
			}
		}
	}
	return out
}

// Check implements Machine: the use-after-free a transition raised. P1
// is not stated here: Check refines every step through Interp.
func (m *RWModel) Check(st State) error {
	if s := st.(rwState); s.Bad != "" {
		return fmt.Errorf("spec: %s", s.Bad)
	}
	return nil
}

// Interp implements Interp: a core holds the page it write-locks.
func (m *RWModel) Interp(st State) AtomicState {
	s := st.(rwState)
	a := nullAtomic(m.Topo)
	for p, c := range s.Writer {
		if c >= 0 {
			a.Hold[c] = int8(p)
		}
	}
	return a
}

// Done implements Machine.
func (m *RWModel) Done(st State) bool {
	s := st.(rwState)
	for c := range m.Targets {
		if s.Cores[c].PC != rwDone {
			return false
		}
	}
	return true
}
