package core

// A move relocates live anonymous pages into a new block: the one way
// internal/core changes the frame behind translations other cores may be
// using. Frame migration (Daemon.Migrate: one 4-KiB page into an order-0
// frame) and huge-page collapse (CollapseHuge: 512 pages into an order-9
// block mapped by one level-2 leaf) are both moves, and a move runs in
// break-before-make order, the Armv8-A discipline for changing the output
// address of a live translation:
//
//  1. protect (txn 1) — check the span under its lock, then write-protect
//     it (clear Write, set COW) and shoot it down synchronously. After
//     this no core holds a writable translation of a source frame.
//  2. barrier — one RCU grace period, with no lock held (the lock paths
//     open RCU read sections, so waiting under a PT lock could wait on
//     itself). Accesses that translated through an old writable PTE have
//     retired; a late writer now faults.
//  3. remap (txn 2) — re-lock, check that nothing moved in the window
//     (same frames, still write-protected, still exclusive), copy the
//     sources into the block and map it with the original permission.
//     The copy follows the check under the lock: a writer must fault, and
//     its COW upgrade serializes behind this lock — one that upgraded
//     first changed the permission and failed the check. Close shoots the
//     old translations down before the sources are released.
//
// A failed check in txn 2 gives the original permission back to every
// page still in the write-protected form on an exclusively mapped
// anonymous frame — the upgrade the fault path makes on such a page's
// next write. Without it, a span that one store aborted would stay
// copy-on-write, and reclaim and the collapse scanner skip COW pages, so
// it would never be reclaimed or collapsed again.
//
// The mapped/unmapped modal invariant holds throughout: every page stays
// Mapped in every observable state — first to its source (read-only),
// then to the block — never transiently unmapped.

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/fault"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
)

// errHuge is a check failing because the span is already one huge leaf.
var errHuge = fmt.Errorf("%w: span already mapped huge", mm.ErrNotSupported)

// move is one relocation of the resident 4-KiB pages of [va, va+span(level))
// into the block dst, mapped there as one level-`level` leaf.
type move struct {
	a     *AddrSpace
	core  int
	va    arch.Vaddr
	level int
	dst   arch.PFN
	// ref is each source frame's expected reference count: its mapping,
	// plus the scanner's pin for a migration.
	ref int64
	// src is page i's source frame. The first check records what the
	// caller did not preset; every later check requires the same frames.
	src  []arch.PFN
	perm arch.Perm
	key  arch.ProtKey
	// broken says protect has run: the pages must be in the
	// write-protected form of perm.
	broken bool
}

// writeProtected is perm with its write access turned into a COW fault:
// the form protect publishes. A page that cannot be written has nothing
// to break — making it COW would let its next write fault grant Write.
func writeProtected(perm arch.Perm) arch.Perm {
	if perm&arch.PermWrite == 0 {
		return perm
	}
	return perm&^arch.PermWrite | arch.PermCOW
}

func (mv *move) end() arch.Vaddr { return mv.va + arch.Vaddr(arch.SpanBytes(mv.level)) }

// check validates the span under c: every page resident as a 4-KiB leaf
// of an exclusively mapped anonymous frame whose reference count is ref,
// all with one permission and key — before the break, one without Shared
// or COW; after it, the write-protected form of that permission — and
// each on the source frame recorded for it. Failures wrap
// mm.ErrNotSupported and name the first page that cannot move.
func (mv *move) check(c *RCursor) error {
	isa, phys := mv.a.isa, mv.a.m.Phys
	want, n := writeProtected(mv.perm), 0
	v := walkOps{
		readOnly: true,
		onLeaf: func(_ arch.PFN, _, level int, _, va, _ arch.Vaddr, pte uint64) error {
			if level > 1 {
				return errHuge
			}
			pfn, perm := isa.PFNOf(pte), isa.PermOf(pte)
			if n == 0 && !mv.broken {
				mv.perm, mv.key, want = perm, isa.ProtKeyOf(pte), perm
			}
			if n == len(mv.src) {
				mv.src = append(mv.src, pfn)
			}
			d := phys.Desc(phys.HeadOf(pfn))
			if va != mv.va+arch.Vaddr(n)*arch.PageSize || perm != want || isa.ProtKeyOf(pte) != mv.key ||
				mv.perm&(arch.PermShared|arch.PermCOW) != 0 || pfn != mv.src[n] ||
				d.Kind != mem.KindAnon || d.MapCount() != 1 || d.Ref.Load() != mv.ref {
				return errStopWalk // page n cannot move
			}
			n++
			return nil
		},
	}
	err := c.walk(&v, mv.va, mv.end())
	if err == nil && uint64(n) != arch.SpanBytes(mv.level)/arch.PageSize {
		err = fmt.Errorf("%w: page %#x cannot move", mm.ErrNotSupported, mv.va+arch.Vaddr(n)*arch.PageSize)
	}
	return err
}

// protect is txn 1: check the span, then write-protect it with a
// synchronous shootdown.
func (mv *move) protect() error {
	// Both transactions lock at the leaf's level: remap rewrites a
	// level-`level` entry, so the page holding it must be covered.
	c, err := mv.a.LockLevel(mv.core, mv.va, mv.end(), mv.level)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := mv.check(c); err != nil {
		return err
	}
	isa, perm := mv.a.isa, writeProtected(mv.perm)
	mv.broken = true
	c.needSync = true // the writable translations must be dead on return
	return c.editRange(mv.va, mv.end(), 0, 0, func(pte uint64, level int) uint64 {
		return isa.WithPerm(pte, perm, level)
	})
}

// barrier is the grace period between the transactions of every move
// protected before it; the caller holds no lock.
func barrier(m *cpusim.Machine) {
	fault.MigratePreBarrier.Pause()
	m.RCU.Synchronize()
	fault.MigratePostBarrier.Pause()
}

// remap is txn 2: check the window held, copy the source pages into dst
// and map it with the original permission. MapKeyed consumes dst's
// allocation reference and queues the sources' mapping references for
// release after the shootdown. A failed check gives the write
// permission back: every page still in the write-protected form on an
// exclusively mapped anonymous frame gets perm again — the upgrade its
// next write fault would make.
func (mv *move) remap() error {
	c, err := mv.a.LockLevel(mv.core, mv.va, mv.end(), mv.level)
	if err != nil {
		return err
	}
	defer c.Close()
	isa, phys := mv.a.isa, mv.a.m.Phys
	if err = mv.check(c); err == nil {
		for i, src := range mv.src {
			copy(phys.Data(mv.dst)[uint64(i)*arch.PageSize:], phys.DataPage(src))
		}
		c.needSync = true // the sources are released at once
		return c.MapKeyed(mv.va, mv.dst, mv.level, mv.perm, mv.key)
	}
	_ = c.editRange(mv.va, mv.end(), 0, 0, func(pte uint64, level int) uint64 {
		if d := phys.Desc(phys.HeadOf(isa.PFNOf(pte))); level == 1 && isa.PermOf(pte) == writeProtected(mv.perm) &&
			d.Kind == mem.KindAnon && d.MapCount() == 1 {
			return isa.WithPerm(pte, mv.perm, 1)
		}
		return pte
	})
	return err
}
