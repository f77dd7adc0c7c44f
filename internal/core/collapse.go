package core

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
)

// CollapseHuge promotes the 2-MiB span containing va into one huge
// mapping (the khugepaged operation), provided every 4-KiB page in the
// span is a resident, exclusively owned anonymous page with a uniform
// permission. The check, the copy into a fresh naturally aligned block,
// and the remap all happen inside a single transaction, so concurrent
// faults in the span serialize against the collapse instead of racing
// it. Returns mm.ErrNotSupported when the span is not collapsible.
func (a *AddrSpace) CollapseHuge(core int, va arch.Vaddr) error {
	if !a.isa.SupportsHugeAt(2) {
		return fmt.Errorf("%w: no 2MiB pages on %s", mm.ErrNotSupported, a.isa.Name())
	}
	if err := a.checkAlive(core); err != nil {
		return err
	}
	defer a.stats.KernelExit(a.stats.KernelEnter())
	a.m.OpTick(core)

	span := arch.SpanBytes(2)
	base := va &^ arch.Vaddr(span-1)
	// Allocate the order-9 target before entering the transaction: the
	// order>0 slow path may run direct compaction, whose migrations take
	// PT locks and an RCU barrier — both forbidden from inside a
	// transaction. Out here the allocating goroutine holds nothing, so a
	// fragmented zone can be compacted on demand to serve the collapse.
	block, err := a.m.Phys.AllocFrames(core, arch.IndexBits, mem.KindAnon)
	if err != nil {
		return err // no contiguous memory: not an error of the span
	}
	// The collapse rewrites a level-2 entry, so the covering PT page
	// must be at level 2 or above (LockLevel floor).
	c, err := a.LockLevel(core, base, base+arch.Vaddr(span), 2)
	if err != nil {
		a.m.Phys.Put(core, block)
		return err
	}
	defer c.Close()
	consumed := false
	defer func() {
		if !consumed {
			a.m.Phys.Put(core, block)
		}
	}()

	// Pass 1, in one range iteration: the whole span must be uniform,
	// resident, anonymous and exclusively owned. Non-resident pages
	// (virtual, swapped, file metadata) simply don't appear in the
	// resident runs and surface as a coverage gap below.
	var runs []Run
	if err := c.IterateMapped(base, base+arch.Vaddr(span), func(r Run) error {
		runs = append(runs, r)
		return nil
	}); err != nil {
		return err
	}
	var perm arch.Perm
	var key arch.ProtKey
	covered := uint64(0)
	for ri, r := range runs {
		if r.Status.Perm&(arch.PermShared|arch.PermCOW) != 0 {
			return fmt.Errorf("%w: page %#x not collapsible (%v)", mm.ErrNotSupported, r.VA, r.Status.Kind)
		}
		if r.Status.HugeLevel() >= 2 {
			return nil // already huge: nothing to do
		}
		if ri == 0 {
			perm, key = r.Status.Perm, r.Status.Key()
		} else if r.Status.Perm != perm || r.Status.Key() != key {
			return fmt.Errorf("%w: non-uniform permissions in span", mm.ErrNotSupported)
		}
		for i := uint64(0); i < r.Pages; i++ {
			head := a.m.Phys.HeadOf(r.Status.Page() + arch.PFN(i))
			d := a.m.Phys.Desc(head)
			if d.Kind != mem.KindAnon || d.MapCount() != 1 {
				return fmt.Errorf("%w: page %#x shared or non-anon", mm.ErrNotSupported,
					r.VA+arch.Vaddr(i*arch.PageSize))
			}
		}
		covered += r.Pages
	}
	if covered != span/arch.PageSize {
		return fmt.Errorf("%w: span %#x not fully resident", mm.ErrNotSupported, base)
	}

	// Pass 2: copy into the pre-allocated order-9 block. Runs are
	// physically contiguous, so each is one memmove.
	dst := a.m.Phys.Data(block)
	for _, r := range runs {
		off := uint64(r.VA - base)
		for i := uint64(0); i < r.Pages; i++ {
			copy(dst[off+i*arch.PageSize:off+(i+1)*arch.PageSize],
				a.m.Phys.DataPage(r.Status.Page()+arch.PFN(i)))
		}
	}

	// Pass 3: replace the 512 small mappings with one huge leaf. Map
	// handles releasing the old subtree and queueing the TLB flush.
	if err := c.MapKeyed(base, block, 2, perm, key); err != nil {
		return err
	}
	consumed = true
	c.needSync = true // the small frames are freed and reusable at once
	a.stats.Collapses.Add(1)
	return nil
}
