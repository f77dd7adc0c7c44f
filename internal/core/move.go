package core

// Break-before-make, the Armv8-A discipline for changing what a live
// translation maps, is one step of one transaction here: breakWrites
// write-protects the pages under the transaction's lock, commits the
// shootdown synchronously and waits one RCU grace period. Afterwards no
// core holds a writable translation of them and no access that
// translated through one is still retiring; a store faults, and its
// fault waits for this lock. Until Close nothing can change the pages,
// so whatever the transaction reads of them stays true.
//
// Three operations use it. A move relocates live anonymous pages into a
// new block — frame migration (Daemon.Migrate: one 4-KiB page into an
// order-0 frame) and huge-page collapse (CollapseHuge: 512 pages into an
// order-9 block mapped by one level-2 leaf) — in one transaction: lock,
// check, break, copy, map the block with the original permission, Close
// (which shoots the old translations down before the sources are
// released). Eviction (evict) breaks its candidates before it writes them
// to swap. Every page stays Mapped in every observable state — first to
// its source (write-protected), then to its new home — never transiently
// unmapped.
//
// Waiting for a grace period under a PT lock is legal because no RCU
// reader waits on a lock: lockAdv takes its lock after its read section,
// and cpusim.Machine.Access runs its fault outside its section.

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/fault"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/tlb"
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
	// src is page i's source frame. The check records what the caller did
	// not preset and requires the preset frames.
	src  []arch.PFN
	perm arch.Perm
	key  arch.ProtKey
}

// writeProtected is perm with its write access turned into a COW fault:
// the form breakWrites publishes. A page that cannot be written has
// nothing to break — making it COW would let its next write fault grant
// Write.
func writeProtected(perm arch.Perm) arch.Perm {
	if perm&arch.PermWrite == 0 {
		return perm
	}
	return perm&^arch.PermWrite | arch.PermCOW
}

// breakWrites is the break of break-before-make over every range of rs,
// all under c's lock: each leaf is write-protected, the shootdown is
// committed synchronously, and barrier waits out every access that
// translated through an old writable PTE.
func (c *RCursor) breakWrites(rs []tlb.Range) error {
	isa := c.a.isa
	for _, r := range rs {
		err := c.editRange(r.Lo, r.Hi, 0, 0, func(pte uint64, level int) uint64 {
			return isa.WithPerm(pte, writeProtected(isa.PermOf(pte)), level)
		})
		if err != nil {
			return err
		}
	}
	c.needSync = true
	c.spillDeferred()
	barrier(c.a.m)
	return nil
}

// barrier is the grace period of a break.
func barrier(m *cpusim.Machine) {
	fault.MigratePreBarrier.Pause()
	m.RCU.Synchronize()
	fault.MigratePostBarrier.Pause()
}

func (mv *move) end() arch.Vaddr { return mv.va + arch.Vaddr(arch.SpanBytes(mv.level)) }

// run is the move's one transaction. MapKeyed consumes dst's allocation
// reference and queues the sources' mapping references for release after
// the shootdown; a failed check changes nothing.
func (mv *move) run() error {
	// The block replaces a level-`level` entry, so the page holding it must
	// be covered.
	c, err := mv.a.LockLevel(mv.core, mv.va, mv.end(), mv.level)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := mv.check(c); err != nil {
		return err
	}
	if err := c.breakWrites([]tlb.Range{{Lo: mv.va, Hi: mv.end()}}); err != nil {
		return err
	}
	phys := mv.a.m.Phys
	for i, src := range mv.src {
		copy(phys.Data(mv.dst)[uint64(i)*arch.PageSize:], phys.DataPage(src))
	}
	return c.MapKeyed(mv.va, mv.dst, mv.level, mv.perm, mv.key)
}

// check validates the span under c: every page resident as a 4-KiB leaf
// of an exclusively mapped anonymous frame whose reference count is ref,
// all with one permission without Shared or COW and one key, each on the
// source frame preset for it. Failures wrap mm.ErrNotSupported and name
// the first page that cannot move.
func (mv *move) check(c *RCursor) error {
	isa, phys := mv.a.isa, mv.a.m.Phys
	n := 0
	v := walkOps{
		readOnly: true,
		onLeaf: func(_ arch.PFN, _, level int, _, va, _ arch.Vaddr, pte uint64) error {
			if level > 1 {
				return errHuge
			}
			pfn, perm := isa.PFNOf(pte), isa.PermOf(pte)
			if n == 0 {
				mv.perm, mv.key = perm, isa.ProtKeyOf(pte)
			}
			if n == len(mv.src) {
				mv.src = append(mv.src, pfn)
			}
			d := phys.Desc(phys.HeadOf(pfn))
			if va != mv.va+arch.Vaddr(n)*arch.PageSize || perm != mv.perm || isa.ProtKeyOf(pte) != mv.key ||
				perm&(arch.PermShared|arch.PermCOW) != 0 || pfn != mv.src[n] ||
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
