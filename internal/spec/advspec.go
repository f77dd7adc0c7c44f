package spec

import "fmt"

// Core phases of the CortenMM_adv model (Figure 6).
const (
	advStart        = iota // enter the RCU read-side critical section
	advTraverse            // lockless downward link reads
	advCover               // note the covering page's life, leave RCU
	advLockCovering        // MCS-lock the noted life
	advStaleCheck          // Figure 7 retry test
	advDFS                 // preorder-lock all descendants
	advBody                // transaction body (ops)
	advUnlock              // release all held locks
	advDone
)

// Role of a core in the scenario.
type Role uint8

const (
	// RoleLocker locks its range, runs an empty body, unlocks.
	RoleLocker Role = iota
	// RoleUnmapper removes one child PT page inside its transaction:
	// unlink from parent, mark stale, unlock, push to the RCU monitor.
	RoleUnmapper
)

type advCore struct {
	PC       uint8
	Cur      int8 // traversal position
	Covering int8
	ObsGen   uint8
	InRCU    bool
	Unmapped bool  // unmapper: child removal done
	RevIdx   uint8 // unmapper: rev_dfs progress through the removed subtree
	Hinted   bool  // this start locks the last covered page
	Second   bool  // hinted locker: its second transaction has begun
}

// advState is one global state of the CortenMM_adv model.
type advState struct {
	Linked [maxPages]bool // parent PTE present
	Stale  [maxPages]bool
	Freed  [maxPages]bool
	InMon  [maxPages]bool  // sitting in the RCU monitor
	Snap   [maxPages]uint8 // reader mask captured at monitor enqueue
	Gen    [maxPages]uint8 // bumped on reuse
	Lock   [maxPages]int8  // holder, or -1
	Cores  [maxCores]advCore
	Bad    string // violation raised by a transition
}

// Key implements State.
func (s advState) Key() string {
	return fmt.Sprintf("%v%v%v%v%v%v%v%v%s",
		s.Linked, s.Stale, s.Freed, s.InMon, s.Snap, s.Gen, s.Lock, s.Cores, s.Bad)
}

// AdvModel is the CortenMM_adv locking protocol with PT-page removal:
// lockless RCU traversal, covering lock, stale retry, descendant DFS,
// and the unmap path of Figures 6 and 7 — including the RCU monitor and
// page reuse, so use-after-free and lost-update bugs are expressible.
//
// The covering lock is taken after the read section, as internal/core
// does: the traversal notes the covering page's identity (page, Gen) —
// its per-life state object — and leaves RCU at the cover step; the lock
// is that life's. A life that has ended since is a dead state object that
// no one holds and that reads stale forever, so locking it is legal and
// takes the stale retry.
type AdvModel struct {
	Topo    *Topology
	Targets []int
	Roles   []Role
	// UnmapChild is the PT page RoleUnmapper cores remove (must be a
	// child of their covering target).
	UnmapChild int

	// Seeded bugs for the negative tests:
	// NoStaleCheck skips the Figure-7 retry test.
	NoStaleCheck bool
	// NoStaleMark removes pages without marking them stale.
	NoStaleMark bool
	// NoRCU frees monitor pages without waiting for readers.
	NoRCU bool

	// Hinted gives every locker a second transaction that starts at
	// advLockCovering on the identity its first one covered, without a
	// traversal — the per-core cursor's hint. (No page is ever re-linked
	// here, so the hint is never coarser than a traversal's answer.)
	Hinted bool
	// HintByFrame (seeded bug) re-resolves the hint by page number, so a
	// reused page's fresh state passes the stale check.
	HintByFrame bool
}

// Init implements Machine: a fully linked tree, all pages unlocked.
func (m *AdvModel) Init() State {
	var s advState
	for p := 0; p < m.Topo.N; p++ {
		s.Linked[p] = true
		s.Lock[p] = -1
	}
	for p := m.Topo.N; p < maxPages; p++ {
		s.Lock[p] = -1
	}
	for c := range s.Cores {
		s.Cores[c].Cur = -1
		s.Cores[c].Covering = -1
	}
	return s
}

// reachable reports whether page q is linked all the way down from page
// top (inclusive ancestors below top).
func (m *AdvModel) reachable(s advState, top, q int) bool {
	for p := q; p != top; p = m.Topo.Parent[p] {
		if p < 0 || !s.Linked[p] {
			return false
		}
	}
	return true
}

// revSubtree returns the removed page's subtree in reverse preorder —
// the Figure 6 rev_dfs order (descendants before ancestors).
func (m *AdvModel) revSubtree(page int) []int {
	pre := m.Topo.Subtree(page)
	rev := make([]int, len(pre))
	for i, p := range pre {
		rev[len(pre)-1-i] = p
	}
	return rev
}

func (m *AdvModel) rcuMask(s advState) uint8 {
	var mask uint8
	for c := range m.Targets {
		if s.Cores[c].InRCU {
			mask |= 1 << c
		}
	}
	return mask
}

// Next implements Machine.
func (m *AdvModel) Next(st State) []Step {
	s := st.(advState)
	if s.Bad != "" {
		return nil // violations are terminal
	}
	var out []Step
	for c := range m.Targets {
		core := s.Cores[c]
		target := m.Targets[c]
		switch core.PC {
		case advStart:
			n := s
			nc := &n.Cores[c]
			nc.InRCU = true
			nc.Cur = 0
			nc.PC = advTraverse
			if target == 0 {
				nc.PC = advCover
			}
			out = append(out, Step{fmt.Sprintf("c%d:rcu_begin", c), n})

		case advTraverse:
			n := s
			nc := &n.Cores[c]
			cur := int(core.Cur)
			if s.Freed[cur] {
				n.Bad = fmt.Sprintf("core %d traverses freed PT page %d (UAF)", c, cur)
				out = append(out, Step{fmt.Sprintf("c%d:uaf_read(%d)", c, cur), n})
				break
			}
			path := m.Topo.PathTo(target)
			if m.Topo.Depth[cur]+1 >= len(path) {
				panic("spec: traversal past target")
			}
			next := path[m.Topo.Depth[cur]+1]
			if s.Linked[next] {
				nc.Cur = int8(next)
				if next == target {
					nc.PC = advCover
				}
				out = append(out, Step{fmt.Sprintf("c%d:read(%d)", c, next), n})
			} else {
				nc.PC = advCover
				out = append(out, Step{fmt.Sprintf("c%d:stop(%d)", c, cur), n})
			}

		case advCover:
			// Note the covering page's state object, still inside RCU, then
			// leave the read section.
			cur := int(core.Cur)
			n := s
			if s.Freed[cur] {
				n.Bad = fmt.Sprintf("core %d resolves freed PT page %d (use-after-free)", c, cur)
				out = append(out, Step{fmt.Sprintf("c%d:uaf_cover(%d)", c, cur), n})
				break
			}
			nc := &n.Cores[c]
			nc.Covering, nc.ObsGen, nc.InRCU = core.Cur, s.Gen[cur], false
			nc.PC = advLockCovering
			for q := range n.Snap {
				n.Snap[q] &^= 1 << c
			}
			out = append(out, Step{fmt.Sprintf("c%d:cover(%d)", c, cur), n})

		case advLockCovering:
			p := int(core.Covering)
			byFrame := core.Hinted && m.HintByFrame
			if !byFrame && !m.NoStaleCheck && (s.Freed[p] || s.Gen[p] != core.ObsGen) {
				// The noted life has ended: its dead state object is locked
				// by no one and reads stale — retry from the root.
				n := s
				n.Cores[c] = advCore{PC: advStart, Cur: -1, Covering: -1, Second: core.Second}
				out = append(out, Step{fmt.Sprintf("c%d:dead(%d)", c, p), n})
				break
			}
			if s.Lock[p] == -1 {
				n := s
				n.Lock[p] = int8(c)
				n.Cores[c].PC = advStaleCheck
				out = append(out, Step{fmt.Sprintf("c%d:lock(%d)", c, p), n})
			}

		case advStaleCheck:
			p := int(core.Covering)
			n := s
			nc := &n.Cores[c]
			stale := s.Stale[p]
			if !(core.Hinted && m.HintByFrame) {
				// Outside RCU the page may be freed and reused while its lock
				// is held; the check reads the noted life's own state object,
				// and a retired generation's reads stale forever.
				stale = stale || s.Gen[p] != core.ObsGen
			}
			if !m.NoStaleCheck && stale {
				// Figure 7: raced with an unmap — retry from the root. (A
				// reuse already dropped the lock of the generation we held.)
				if n.Lock[p] == int8(c) {
					n.Lock[p] = -1
				}
				nc.Hinted = false
				nc.PC = advStart
				nc.Cur = -1
				nc.Covering = -1
				out = append(out, Step{fmt.Sprintf("c%d:stale_retry(%d)", c, p), n})
				break
			}
			switch {
			case s.Stale[p]:
				n.Bad = fmt.Sprintf("core %d transacts on stale PT page %d (lost update)", c, p)
			case s.Gen[p] != core.ObsGen:
				n.Bad = fmt.Sprintf("core %d transacts on reused PT page %d (lost update)", c, p)
			default:
				nc.PC = advDFS
			}
			out = append(out, Step{fmt.Sprintf("c%d:stale_ok(%d)", c, p), n})

		case advDFS:
			// Preorder-lock the next reachable, not-yet-held descendant.
			cov := int(core.Covering)
			locked := func(q int) bool { return s.Lock[q] == int8(c) }
			cand := -1
			for _, q := range m.Topo.Subtree(cov)[1:] {
				if s.Linked[q] && m.reachable(s, cov, m.Topo.Parent[q]) && !locked(q) {
					cand = q
					break
				}
			}
			if cand == -1 {
				n := s
				n.Cores[c].PC = advBody
				out = append(out, Step{fmt.Sprintf("c%d:dfs_done", c), n})
			} else if s.Lock[cand] == -1 {
				n := s
				n.Lock[cand] = int8(c)
				out = append(out, Step{fmt.Sprintf("c%d:dfs_lock(%d)", c, cand), n})
			}

		case advBody:
			if m.Roles[c] == RoleUnmapper && !core.Unmapped {
				uc := m.UnmapChild
				n := s
				if core.RevIdx == 0 {
					if !s.Linked[uc] {
						// Someone else already removed it.
						n.Cores[c].Unmapped = true
						out = append(out, Step{fmt.Sprintf("c%d:unmap_noop", c), n})
						break
					}
					// Figure 6 L30: atomically clear the parent PTE.
					n.Linked[uc] = false
					n.Cores[c].RevIdx = 1
					out = append(out, Step{fmt.Sprintf("c%d:unlink(%d)", c, uc), n})
					break
				}
				// Figure 6 L31-L34: rev_dfs over the removed subtree —
				// stale-mark, unlock, and enqueue each page into the RCU
				// monitor, deepest pages first, one per step.
				rev := m.revSubtree(uc)
				idx := int(core.RevIdx) - 1
				for idx < len(rev) && s.Lock[rev[idx]] != int8(c) {
					idx++ // skip pages we never locked (already unlinked)
				}
				if idx >= len(rev) {
					n.Cores[c].Unmapped = true
					out = append(out, Step{fmt.Sprintf("c%d:unmap_done(%d)", c, uc), n})
					break
				}
				p := rev[idx]
				if !m.NoStaleMark {
					n.Stale[p] = true
				}
				n.Lock[p] = -1
				n.InMon[p] = true
				n.Snap[p] = m.rcuMask(n)
				n.Cores[c].RevIdx = uint8(idx + 2)
				out = append(out, Step{fmt.Sprintf("c%d:stale_free(%d)", c, p), n})
				break
			}
			n := s
			n.Cores[c].PC = advUnlock
			out = append(out, Step{fmt.Sprintf("c%d:body_done", c), n})

		case advUnlock:
			n := s
			for q := 0; q < m.Topo.N; q++ {
				if n.Lock[q] == int8(c) {
					n.Lock[q] = -1
				}
			}
			n.Cores[c].PC = advDone
			if m.Hinted && m.Roles[c] == RoleLocker && !core.Second {
				// The second transaction starts at the hint: Covering and
				// ObsGen still name the page the first one locked.
				n.Cores[c].PC = advLockCovering
				n.Cores[c].Hinted = true
				n.Cores[c].Second = true
			}
			out = append(out, Step{fmt.Sprintf("c%d:unlock_all", c), n})
		}
	}

	// Environment: the RCU monitor frees quarantined pages once every
	// snapshot reader has left its critical section, and freed frames
	// may be reallocated (reused) by anyone.
	for p := 0; p < m.Topo.N; p++ {
		if s.InMon[p] && (m.NoRCU || s.Snap[p] == 0) {
			n := s
			n.InMon[p] = false
			n.Freed[p] = true
			out = append(out, Step{fmt.Sprintf("monitor:free(%d)", p), n})
		}
		if s.Freed[p] {
			n := s
			n.Freed[p] = false
			n.Gen[p]++
			n.Stale[p] = false
			n.Lock[p] = -1
			out = append(out, Step{fmt.Sprintf("alloc:reuse(%d)", p), n})
		}
	}
	return out
}

// Check implements Machine: P1 for CortenMM_adv — after the locking
// phase completes, no two cores own overlapping coverings — plus any
// violation a transition raised.
func (m *AdvModel) Check(st State) error {
	s := st.(advState)
	if s.Bad != "" {
		return fmt.Errorf("spec: %s", s.Bad)
	}
	for a := range m.Targets {
		if pc := s.Cores[a].PC; pc != advBody && pc != advUnlock {
			continue
		}
		for b := a + 1; b < len(m.Targets); b++ {
			if pc := s.Cores[b].PC; pc != advBody && pc != advUnlock {
				continue
			}
			pa, pb := int(s.Cores[a].Covering), int(s.Cores[b].Covering)
			if m.Topo.Overlapping(pa, pb) {
				return fmt.Errorf("spec: cores %d and %d own overlapping subtrees %d and %d", a, b, pa, pb)
			}
		}
	}
	return nil
}

// Done implements Machine.
func (m *AdvModel) Done(st State) bool {
	s := st.(advState)
	for c := range m.Targets {
		if s.Cores[c].PC != advDone {
			return false
		}
	}
	return true
}
